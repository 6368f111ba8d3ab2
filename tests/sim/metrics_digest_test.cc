// Recorded-digest golden test: every simulated per-query output of all
// seven systems, across both engines and every engine path (batch replay,
// the one-shot event fleet, warm sessions, online re-planning), three loss
// models and FEC off/on, hashed and compared against constants recorded
// from the implementation these paths were refactored from. Two more
// fixtures pin the compact cycle encoding and the non-default client
// options (AF header repair, §6.1 memory-bound processing, no cross-border
// optimization), and a last digest pins the §8 kNN and range clients'
// metrics and answers. Unlike the relational determinism tests (scratch vs
// none, threads 1 vs 4), a change that moves both sides of a comparison
// the same way fails here.
//
// The constants must never be edited to make a change pass: a mismatch
// means a simulated result moved.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/eb.h"
#include "core/knn_on_air.h"
#include "core/range_on_air.h"
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
using testing_support::MetricsDigest;
using testing_support::SmallNetwork;

struct Fixture {
  graph::Graph g;
  std::vector<std::unique_ptr<core::AirSystem>> systems;
  workload::Workload w;
};

Fixture* MakeFixture(broadcast::CycleEncoding encoding) {
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
  params.build.encoding = encoding;
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
}

const Fixture& SharedFixture() {
  static const Fixture& f = *MakeFixture(broadcast::CycleEncoding::kLegacy);
  return f;
}

const Fixture& CompactFixture() {
  static const Fixture& f = *MakeFixture(broadcast::CycleEncoding::kCompact);
  return f;
}

/// Every non-default client switch at once: AF's header repair, the §6.1
/// memory-bound collapse (EB, NR) and EB without the §4.1 cross-border
/// optimization.
core::ClientOptions VariantClient() {
  core::ClientOptions client;
  client.repair_header = true;
  client.memory_bound = true;
  client.cross_border_opt = false;
  return client;
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

BatchResult RunCase(const Fixture& f, const Case& c, unsigned threads,
                    const core::ClientOptions& client = {}) {
  std::vector<const core::AirSystem*> ptrs;
  for (const auto& sys : f.systems) ptrs.push_back(sys.get());
  const broadcast::FecScheme fec =
      broadcast::FecScheme::OfRate(c.fec ? 0.2 : 0.0);
  if (c.path == Path::kBatch) {
    SimOptions so;
    so.threads = threads;
    so.loss = Loss(c.loss);
    so.fec = fec;
    so.client = client;
    so.deterministic = true;
    return Simulator(f.g, so).Run(ptrs, f.w);
  }
  EventOptions eo;
  eo.threads = threads;
  eo.loss = Loss(c.loss);
  eo.fec = fec;
  eo.client = client;
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

// Recorded before the five full-cycle classes and the region decoders were
// merged.
const Case kCompactCases[] = {
    {Path::kBatch, 0, false, 0xf4a9a49ac0d936bdULL},
    {Path::kBatch, 1, false, 0xe4ce6ce8278bc5fcULL},
    {Path::kBatch, 2, false, 0x6b944611947487a1ULL},
    {Path::kEvent, 0, false, 0xc668299bc5e772deULL},
    {Path::kEvent, 1, false, 0x54b532cf67db0f3aULL},
    {Path::kEvent, 2, false, 0x22808a73c16c9babULL},
    {Path::kSessions, 0, false, 0x14f161429d68fdccULL},
    {Path::kSessions, 1, false, 0xcd8e48cc64e8f6dfULL},
    {Path::kSessions, 2, false, 0xe0314c931ad7efa1ULL},
};

TEST(MetricsDigestTest, CompactEncodingMatchesRecordedDigest) {
  const Fixture& f = CompactFixture();
  ASSERT_EQ(f.systems.size(), 7u);
  for (const Case& c : kCompactCases) {
    for (unsigned threads : {1u, 4u}) {
      EXPECT_EQ(Hex(DigestOf(RunCase(f, c, threads))), Hex(c.digest))
          << "compact/" << Name(c) << " threads=" << threads;
    }
  }
}

// Recorded with the previous constants.
const Case kVariantClientCases[] = {
    {Path::kBatch, 0, false, 0x25353779ec095fe3ULL},
    {Path::kBatch, 1, false, 0x1234016577470007ULL},
    {Path::kBatch, 2, false, 0xc8c156b9d2ade7c4ULL},
    {Path::kEvent, 0, false, 0x3653f9f3ea7145c0ULL},
    {Path::kEvent, 1, false, 0xfddd5ca85ea08cedULL},
    {Path::kEvent, 2, false, 0xfa29d9e4b90b1567ULL},
    {Path::kSessions, 0, false, 0xa4b94752ac2c43bcULL},
    {Path::kSessions, 1, false, 0x85527c0bdeba03dbULL},
    {Path::kSessions, 2, false, 0x847d45098e69fadcULL},
};

TEST(MetricsDigestTest, VariantClientOptionsMatchRecordedDigest) {
  const Fixture& f = SharedFixture();
  for (const Case& c : kVariantClientCases) {
    for (unsigned threads : {1u, 4u}) {
      EXPECT_EQ(Hex(DigestOf(RunCase(f, c, threads, VariantClient()))),
                Hex(c.digest))
          << "variant/" << Name(c) << " threads=" << threads;
    }
  }
}

/// kNN and range queries against the fixture's network on an 8-region EB
/// broadcast (legacy encoding): every query's metrics and answer pairs.
uint64_t KnnRangeDigest(double loss_rate) {
  const Fixture& f = SharedFixture();
  auto eb = core::EbSystem::Build(f.g, 8).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), loss_rate, 91);
  std::vector<graph::NodeId> pois;
  for (graph::NodeId v = 5; v < f.g.num_nodes(); v += 13) pois.push_back(v);
  MetricsDigest d;
  for (size_t i = 0; i < f.w.queries.size(); ++i) {
    const workload::Query& q = f.w.queries[i];
    const double phase = static_cast<double>(i) /
                         static_cast<double>(f.w.queries.size());
    core::KnnQuery kq;
    kq.source = q.source;
    kq.source_coord = f.g.Coord(q.source);
    kq.k = 1 + static_cast<uint32_t>(i % 5);
    kq.tune_phase = phase;
    const core::KnnResult knn = core::RunKnnQuery(*eb, channel, kq, pois);
    d.Add(knn.metrics);
    d.Add(static_cast<uint64_t>(knn.neighbors.size()));
    for (const auto& [v, dist] : knn.neighbors) {
      d.Add(static_cast<uint64_t>(v));
      d.Add(static_cast<uint64_t>(dist));
    }
    core::RangeQuery rq;
    rq.source = q.source;
    rq.source_coord = f.g.Coord(q.source);
    rq.radius = q.true_dist == graph::kInfDist ? 1000 : q.true_dist / 2;
    rq.tune_phase = phase;
    const core::RangeResult range = core::RunRangeQuery(*eb, channel, rq);
    d.Add(range.metrics);
    d.Add(static_cast<uint64_t>(range.nodes.size()));
    for (const auto& [v, dist] : range.nodes) {
      d.Add(static_cast<uint64_t>(v));
      d.Add(static_cast<uint64_t>(dist));
    }
  }
  return d.value();
}

// Recorded with the previous constants.
TEST(MetricsDigestTest, KnnAndRangeMatchRecordedDigest) {
  EXPECT_EQ(Hex(KnnRangeDigest(0.0)), Hex(0xd834ff726e8e267cULL)) << "lossless";
  EXPECT_EQ(Hex(KnnRangeDigest(0.02)), Hex(0xc004794349890fa4ULL)) << "loss0.02";
}

}  // namespace
}  // namespace airindex::sim
