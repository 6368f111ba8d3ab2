#ifndef AIRINDEX_SIM_FAN_OUT_H_
#define AIRINDEX_SIM_FAN_OUT_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "broadcast/schedule.h"
#include "common/thread_pool.h"
#include "core/air_system.h"
#include "core/query_scratch.h"
#include "device/energy.h"
#include "device/metrics.h"
#include "sim/aggregate.h"
#include "sim/schedule_plan.h"
#include "sim/simulator.h"

namespace airindex::sim {

/// The static broadcast-disk schedule of `sys`, planned once from the
/// run's analytic demand profile and transmitted for the whole run. Any
/// other mode, or a plan that collapses to the flat spec, yields nullopt:
/// the schedule-free historical timeline, bit for bit.
inline std::optional<broadcast::BroadcastSchedule> StaticSchedule(
    const core::AirSystem& sys, const EngineOptions& options) {
  if (options.schedule.mode != SchedulePolicy::Mode::kStatic) {
    return std::nullopt;
  }
  broadcast::ScheduleSpec spec =
      PlanStaticSpec(sys.cycle(), options.schedule_demand, options.schedule,
                     options.encoding);
  if (spec.flat()) return std::nullopt;
  auto compiled =
      broadcast::BroadcastSchedule::Compile(&sys.cycle(), std::move(spec));
  if (!compiled.ok()) return std::nullopt;
  return std::move(compiled).value();
}

/// Prices a query's wait/listen split in milliseconds: the doze from the
/// arrival instant to the joined packet's start (`boundary_ms`, the event
/// engine's sub-packet remainder; never negative) plus the session's
/// wait/listen window. With FEC on, the on-air timeline is longer than the
/// logical packet count (parity slots), so the physical-slot window is
/// priced at `slot_ms`; FEC off keeps the packet-count window at
/// `pkt_ms`.
inline void PriceLatency(device::QueryMetrics& m, double boundary_ms,
                         double pkt_ms, double slot_ms, bool fec_on) {
  if (fec_on) {
    m.wait_ms = (boundary_ms > 0.0 ? boundary_ms : 0.0) +
                static_cast<double>(m.wait_slots) * slot_ms;
    m.listen_ms =
        static_cast<double>(m.latency_slots - m.wait_slots) * slot_ms;
  } else {
    m.wait_ms = (boundary_ms > 0.0 ? boundary_ms : 0.0) +
                static_cast<double>(m.wait_packets) * pkt_ms;
    m.listen_ms =
        static_cast<double>(m.latency_packets - m.wait_packets) * pkt_ms;
  }
}

/// The fan-out loop of both engines. Runs `num_units` units of work — one
/// query, or one session's chain of queries — across options.threads
/// workers; `run_unit(scratch, unit, per_query)` answers the unit's
/// queries into `per_query`, indexed by workload ordinal. Each worker
/// reuses one core::QueryScratch across its whole slice and across
/// repetitions (the allocation-free steady state; scratch never changes a
/// result). The whole fan-out repeats options.repeat times and reports the
/// minimum wall time; cpu_ms is zeroed under options.deterministic.
template <typename RunUnit>
SystemResult FanOut(std::string_view system, size_t num_queries,
                    size_t num_units, const EngineOptions& options,
                    RunUnit&& run_unit) {
  SystemResult result;
  result.system = std::string(system);
  result.per_query.resize(num_queries);
  std::vector<core::QueryScratch> scratch(
      ResolveWorkers(num_units, options.threads));

  const unsigned repeat = std::max(1u, options.repeat);
  double best_wall = 0.0;
  for (unsigned rep = 0; rep < repeat; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    ParallelForWorker(
        num_units,
        [&](unsigned worker, size_t unit) {
          run_unit(scratch[worker], unit, result.per_query);
        },
        options.threads);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    best_wall = rep == 0 ? wall : std::min(best_wall, wall);
  }
  if (options.deterministic) {
    for (device::QueryMetrics& m : result.per_query) m.cpu_ms = 0.0;
  }
  result.wall_seconds = best_wall;
  result.queries_per_second =
      best_wall > 0.0 ? static_cast<double>(num_queries) / best_wall : 0.0;
  result.aggregate = Aggregate::Of(
      result.system, result.per_query,
      device::EnergyModel(options.profile, options.bits_per_second));
  return result;
}

/// Runs `run_system(sys)` for every system in turn into a BatchResult
/// carrying the run's shared configuration; the engine adds its own
/// fields (seed, engine name, sessions).
template <typename RunSystem>
BatchResult RunBatch(std::span<const core::AirSystem* const> systems,
                     size_t num_queries, const EngineOptions& options,
                     RunSystem&& run_system) {
  BatchResult batch;
  batch.num_queries = num_queries;
  batch.threads = ResolveThreads(options.threads);
  batch.loss_rate = options.loss.rate;
  batch.loss_burst_len = options.loss.burst_len;
  batch.corrupt_bit = options.loss.corrupt_bit;
  batch.fec = options.fec;
  batch.schedule_mode = std::string(ScheduleModeName(options.schedule.mode));
  const auto start = std::chrono::steady_clock::now();
  for (const core::AirSystem* sys : systems) {
    batch.systems.push_back(run_system(*sys));
  }
  batch.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return batch;
}

}  // namespace airindex::sim

#endif  // AIRINDEX_SIM_FAN_OUT_H_
