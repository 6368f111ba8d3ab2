// Recorded-digest golden test: every simulated per-query output of all
// seven systems, across both engines and every engine path (batch replay,
// the one-shot event fleet, warm sessions, online re-planning), three loss
// models and FEC off/on, hashed and compared against constants recorded
// from the implementation these paths were refactored from. Unlike the
// relational determinism tests (scratch vs none, threads 1 vs 4), a change
// that moves both sides of a comparison the same way fails here.
//
// The constants must never be edited to make a change pass: a mismatch
// means a simulated result moved.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/systems.h"
#include "sim/event_engine.h"
#include "sim/simulator.h"
#include "testing/metrics_digest.h"
#include "testing/test_graphs.h"
#include "workload/workload.h"

namespace airindex::sim {
namespace {

using testing_support::DigestOf;
using testing_support::Hex;
using testing_support::SmallNetwork;

struct Fixture {
  graph::Graph g;
  std::vector<std::unique_ptr<core::AirSystem>> systems;
  workload::Workload w;
};

const Fixture& SharedFixture() {
  static const Fixture& f = *[] {
    auto* fx = new Fixture();
    fx->g = SmallNetwork(300, 480, 77);
    core::SystemParams params;
    params.arcflag_regions = 8;
    params.eb_regions = 8;
    params.nr_regions = 8;
    params.landmarks = 3;
    params.hiti_regions = 8;
    params.include_spq = true;
    params.include_hiti = true;
    fx->systems = core::BuildSystems(fx->g, params).value();
    workload::WorkloadSpec spec;
    spec.count = 24;
    spec.seed = 78;
    spec.dest = workload::WorkloadSpec::Dest::kZipf;
    spec.zipf_s = 1.2;
    spec.arrival.kind = workload::ArrivalSpec::Kind::kPoisson;
    spec.arrival.rate_per_second = 30.0;
    fx->w = workload::GenerateWorkload(fx->g, spec).value();
    return fx;
  }();
  return f;
}

enum class Path { kBatch, kEvent, kSessions, kOnline };

struct Case {
  Path path;
  int loss;  // index into Loss()
  bool fec;
  uint64_t digest;
};

const broadcast::LossModel& Loss(int i) {
  static const broadcast::LossModel kLosses[3] = {
      broadcast::LossModel::None(),
      broadcast::LossModel::Independent(0.02),
      broadcast::LossModel::Bursty(0.02, 4),
  };
  return kLosses[i];
}

std::string Name(const Case& c) {
  static const char* const kPaths[] = {"batch", "event", "sessions",
                                       "online"};
  static const char* const kLossNames[] = {"lossless", "loss0.02",
                                           "loss0.02x4"};
  return std::string(kPaths[static_cast<int>(c.path)]) + "/" +
         kLossNames[c.loss] + (c.fec ? "/fec0.2" : "/fec-off");
}

BatchResult RunCase(const Fixture& f, const Case& c, unsigned threads) {
  std::vector<const core::AirSystem*> ptrs;
  for (const auto& sys : f.systems) ptrs.push_back(sys.get());
  const broadcast::FecScheme fec =
      broadcast::FecScheme::OfRate(c.fec ? 0.2 : 0.0);
  if (c.path == Path::kBatch) {
    SimOptions so;
    so.threads = threads;
    so.loss = Loss(c.loss);
    so.fec = fec;
    so.deterministic = true;
    return Simulator(f.g, so).Run(ptrs, f.w);
  }
  EventOptions eo;
  eo.threads = threads;
  eo.loss = Loss(c.loss);
  eo.fec = fec;
  eo.deterministic = true;
  if (c.path == Path::kSessions) {
    eo.session.queries = 4;
    eo.session.think_ms = 100.0;
    eo.cache_bytes = size_t{1} << 20;
  } else if (c.path == Path::kOnline) {
    eo.schedule.mode = SchedulePolicy::Mode::kOnline;
    eo.schedule.replan_cycles = 2;
  }
  return EventEngine(f.g, eo).Run(ptrs, f.w);
}

// Recorded before the client and engine loops were merged.
const Case kCases[] = {
    {Path::kBatch, 0, false, 0x7060df1aadd1074fULL},
    {Path::kBatch, 0, true, 0x0a29ebc90738ace0ULL},
    {Path::kBatch, 1, false, 0x74cf0c72c2d9982aULL},
    {Path::kBatch, 1, true, 0xc5f635b54dea130cULL},
    {Path::kBatch, 2, false, 0x0646e44c6824df7eULL},
    {Path::kBatch, 2, true, 0xac1614a9f2591a30ULL},
    {Path::kEvent, 0, false, 0x514ac6ea7c21c2cbULL},
    {Path::kEvent, 0, true, 0x0ee46be922b62666ULL},
    {Path::kEvent, 1, false, 0x779d4dd494d01a67ULL},
    {Path::kEvent, 1, true, 0x9089bd6e0de0ed7bULL},
    {Path::kEvent, 2, false, 0x5a6474c467296d28ULL},
    {Path::kEvent, 2, true, 0xabe201d226b8c5abULL},
    {Path::kSessions, 0, false, 0xa776b6c46f9b1a73ULL},
    {Path::kSessions, 0, true, 0xa5531b585b832293ULL},
    {Path::kSessions, 1, false, 0x61c096511b91ebd7ULL},
    {Path::kSessions, 1, true, 0xd85d5dae564503d9ULL},
    {Path::kSessions, 2, false, 0x080da99560f8b238ULL},
    {Path::kSessions, 2, true, 0x301b450e836a1ee8ULL},
    {Path::kOnline, 0, false, 0x8f621752a97b7201ULL},
    {Path::kOnline, 0, true, 0xe3925fffcc4a995fULL},
    {Path::kOnline, 1, false, 0x37a232d59952b043ULL},
    {Path::kOnline, 1, true, 0x253a5438a1a3db21ULL},
    {Path::kOnline, 2, false, 0x22d37c72009a30daULL},
    {Path::kOnline, 2, true, 0xa3bb37738381caa8ULL},
};

TEST(MetricsDigestTest, EveryEnginePathMatchesRecordedDigest) {
  const Fixture& f = SharedFixture();
  ASSERT_EQ(f.systems.size(), 7u);
  for (const Case& c : kCases) {
    for (unsigned threads : {1u, 4u}) {
      EXPECT_EQ(Hex(DigestOf(RunCase(f, c, threads))), Hex(c.digest))
          << Name(c) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace airindex::sim
