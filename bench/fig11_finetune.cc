// Reproduces Figure 11 (a-d, Appendix C.1): fine-tuning the number of
// regions (ArcFlag/EB/NR) and landmarks (LD) on Germany. Dijkstra is the
// flat reference line.
//
// Expected shape (paper): EB/NR tuning is U-shaped in the region count
// (too few regions = loose pruning, too many = index overhead) with the
// optimum around 32; latency strictly grows with regions; Landmark's
// vectors blow the cycle up as landmarks increase.

#include <cstdio>

#include "common/harness.h"
#include "common/options.h"
#include "core/systems.h"

using namespace airindex;  // NOLINT: experiment binary

namespace {

struct Row {
  std::string config;
  std::string method;
  sim::Aggregate summary;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  bench::PrintHeader("Figure 11: fine-tuning regions/landmarks (Germany)",
                     opts);
  graph::Graph g = bench::LoadNetwork("Germany", opts);
  auto w = workload::GenerateWorkload(g, opts.queries, opts.seed).value();

  const uint32_t regions[4] = {16, 32, 64, 128};
  const uint32_t landmarks[4] = {2, 4, 8, 16};

  auto& registry = core::SystemRegistry::Global();
  std::vector<Row> rows;
  // Dijkstra reference (independent of the sweep).
  {
    auto dj = registry.Get(g, "DJ").value();
    auto m = bench::RunQueries(*dj, g, w, opts.Loss(), opts.seed, {},
                               opts.threads, opts.repeat);
    rows.push_back({"-", "DJ", bench::Summarize(m)});
  }
  for (int i = 0; i < 4; ++i) {
    char cfg[32];
    std::snprintf(cfg, sizeof(cfg), "%u/%u", regions[i], landmarks[i]);
    core::SystemParams params;
    params.nr_regions = regions[i];
    params.eb_regions = regions[i];
    params.arcflag_regions = regions[i];
    params.landmarks = landmarks[i];
    for (const char* method : {"NR", "EB", "AF", "LD"}) {
      auto sys = registry.Get(g, method, params).value();
      auto m = bench::RunQueries(*sys, g, w, opts.Loss(), opts.seed, {},
                                 opts.threads, opts.repeat);
      rows.push_back({cfg, method, bench::Summarize(m)});
    }
  }

  std::printf("%-10s %-6s %12s %10s %12s %10s\n", "regions/lm", "method",
              "tuning[pkt]", "mem[MB]", "latency[pkt]", "cpu[ms]");
  for (const auto& r : rows) {
    std::printf("%-10s %-6s %12.0f %10s %12.0f %10.2f\n", r.config.c_str(),
                r.method.c_str(), r.summary.tuning_packets.mean,
                bench::Mb(r.summary.peak_memory_bytes.mean).c_str(),
                r.summary.latency_packets.mean, r.summary.cpu_ms.mean);
  }
  std::printf(
      "\n# paper shape: EB/NR best around 32 regions; EB/NR latency grows\n"
      "# with regions; LD degrades as landmarks increase.\n");
  return 0;
}
