#ifndef AIRINDEX_BENCH_COMMON_HARNESS_H_
#define AIRINDEX_BENCH_COMMON_HARNESS_H_

#include <span>
#include <string>
#include <vector>

#include "common/options.h"
#include "core/air_system.h"
#include "device/metrics.h"
#include "graph/catalog.h"
#include "graph/graph.h"
#include "sim/aggregate.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace airindex::bench {

/// Thin adapter over sim::Simulator: runs every workload query through
/// `sys` — one simulated client per query, `threads` workers — and returns
/// the per-query metrics. Each query listens on its own loss stream derived
/// from (loss_seed, query index), so results are identical for every
/// thread count. The loss model carries both rate and burst length
/// (BenchOptions::Loss()). `repeat` > 1 re-runs the batch N times and
/// prints the min-of-N engine wall time / throughput as a `#` comment
/// line (the returned metrics are identical across repetitions, except
/// the wall-clock-measured cpu_ms, which comes from the last one).
std::vector<device::QueryMetrics> RunQueries(
    const core::AirSystem& sys, const graph::Graph& g,
    const workload::Workload& w, broadcast::LossModel loss,
    uint64_t loss_seed, const core::ClientOptions& options,
    unsigned threads = 1, unsigned repeat = 1);

/// Per-query metrics restricted to a subset of query indexes (Fig. 10's
/// SP-length buckets).
std::vector<device::QueryMetrics> Select(
    const std::vector<device::QueryMetrics>& all,
    const std::vector<size_t>& indexes);

/// Summary of per-query metrics (energy priced for the J2ME phone on the
/// static-3G bitrate, the engine defaults).
sim::Aggregate Summarize(std::span<const device::QueryMetrics> metrics);

/// Generates the scaled replica of a catalog network, printing what was
/// built.
graph::Graph LoadNetwork(const std::string& name, const BenchOptions& opts);

/// Prints a section header for an experiment.
void PrintHeader(const std::string& title, const BenchOptions& opts);

/// Formats bytes as MB with two decimals.
std::string Mb(double bytes);

}  // namespace airindex::bench

#endif  // AIRINDEX_BENCH_COMMON_HARNESS_H_
