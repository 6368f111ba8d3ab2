#include "sim/simulator.h"

#include <optional>

#include "common/thread_pool.h"
#include "sim/fan_out.h"

namespace airindex::sim {

unsigned Simulator::effective_threads() const {
  return ResolveThreads(options_.threads);
}

uint64_t QueryLossSeed(uint64_t base_seed, size_t index) {
  // SplitMix64 over the batch seed and the query ordinal.
  uint64_t z = base_seed + 0x9E3779B97f4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

SystemResult Simulator::RunSystem(const core::AirSystem& sys,
                                  const workload::Workload& w) const {
  // The static schedule is shared read-only by every per-query channel
  // replay. Online mode has no meaning here (no shared timeline); callers
  // reject it before reaching the engine, and a policy that slips through
  // degrades to flat.
  const std::optional<broadcast::BroadcastSchedule> sched =
      StaticSchedule(sys, options_);
  const broadcast::BroadcastSchedule* schedule =
      sched.has_value() ? &*sched : nullptr;

  // Packet duration on this engine's (single, full-rate) channel: each
  // query replays its own cycle from its tune-in, so there is no
  // sub-packet doze before the first packet.
  const double pkt_ms =
      device::PacketSeconds(options_.bits_per_second) * 1000.0;
  const bool fec_on = options_.fec.enabled();

  return FanOut(
      sys.name(), w.queries.size(), w.queries.size(), options_,
      [&](core::QueryScratch& scratch, size_t i,
          std::vector<device::QueryMetrics>& per_query) {
        broadcast::BroadcastChannel channel(
            &sys.cycle(), options_.loss,
            QueryLossSeed(options_.loss_seed, i), options_.fec, schedule);
        device::QueryMetrics m = sys.RunQuery(
            channel, core::MakeAirQuery(*graph_, w.queries[i]),
            options_.client, &scratch);
        PriceLatency(m, 0.0, pkt_ms, pkt_ms, fec_on);
        per_query[i] = m;
      });
}

BatchResult Simulator::Run(std::span<const core::AirSystem* const> systems,
                           const workload::Workload& w) const {
  BatchResult batch =
      RunBatch(systems, w.queries.size(), options_,
               [&](const core::AirSystem& sys) { return RunSystem(sys, w); });
  batch.loss_seed = options_.loss_seed;
  return batch;
}

}  // namespace airindex::sim
