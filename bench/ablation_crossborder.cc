// Ablation: EB's cross-border/local segment split (§4.1). The paper claims
// receiving only cross-border segments of intermediate regions cuts tuning
// time by ~20%. Also reports how the network divides into cross-border and
// local nodes.

#include <cstdio>

#include "common/harness.h"
#include "common/options.h"
#include "core/border_precompute.h"
#include "core/eb.h"
#include "partition/kd_tree.h"

using namespace airindex;  // NOLINT: experiment binary

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  bench::PrintHeader("Ablation: EB cross-border/local segment split", opts);
  graph::Graph g = bench::LoadNetwork("Germany", opts);
  auto w = workload::GenerateWorkload(g, opts.queries, opts.seed).value();

  auto kd = partition::KdTreePartitioner::Build(g, 32).value();
  auto pre = core::ComputeBorderPrecompute(g, kd.Partition(g)).value();
  size_t cross = 0;
  for (uint8_t c : pre.cross_border) cross += c;
  std::printf("cross-border nodes: %zu / %zu (%.1f%%)\n", cross,
              g.num_nodes(), 100.0 * cross / g.num_nodes());

  auto eb = core::EbSystem::BuildFromPrecompute(g, pre).value();

  core::ClientOptions with_opt;
  core::ClientOptions no_opt;
  no_opt.cross_border_opt = false;

  auto with_m = bench::RunQueries(*eb, g, w, opts.Loss(), opts.seed, with_opt,
                                  opts.threads, opts.repeat);
  auto without_m = bench::RunQueries(*eb, g, w, opts.Loss(), opts.seed, no_opt,
                                     opts.threads, opts.repeat);
  auto with_s = bench::Summarize(with_m);
  auto without_s = bench::Summarize(without_m);

  std::printf("%-24s %12s %10s\n", "configuration", "tuning[pkt]",
              "mem[MB]");
  std::printf("%-24s %12.0f %10s\n", "EB with split",
              with_s.tuning_packets.mean,
              bench::Mb(with_s.peak_memory_bytes.mean).c_str());
  std::printf("%-24s %12.0f %10s\n", "EB without split",
              without_s.tuning_packets.mean,
              bench::Mb(without_s.peak_memory_bytes.mean).c_str());
  std::printf("tuning saved: %.1f%%\n",
              100.0 * (1.0 - with_s.tuning_packets.mean /
                                 without_s.tuning_packets.mean));
  std::printf("\n# paper: the optimization reduces tuning time ~20%%.\n");
  return 0;
}
