#include "common/harness.h"

#include <cstdio>
#include <cstdlib>

namespace airindex::bench {

std::vector<device::QueryMetrics> RunQueries(
    const core::AirSystem& sys, const graph::Graph& g,
    const workload::Workload& w, broadcast::LossModel loss,
    uint64_t loss_seed, const core::ClientOptions& options,
    unsigned threads, unsigned repeat) {
  sim::SimOptions so;
  so.threads = threads;
  so.loss = loss;
  so.loss_seed = loss_seed;
  so.client = options;
  so.repeat = repeat;
  sim::Simulator simulator(g, so);
  sim::SystemResult result = simulator.RunSystem(sys, w);
  if (repeat > 1) {
    // The experiment tables print only the deterministic metrics, so the
    // min-of-N engine timing is reported here — one line per measured
    // batch — instead of being silently discarded.
    std::printf("# %s: %.3f s min-of-%u (%.0f q/s)\n",
                result.system.c_str(), result.wall_seconds, repeat,
                result.queries_per_second);
  }
  return std::move(result.per_query);
}

std::vector<device::QueryMetrics> Select(
    const std::vector<device::QueryMetrics>& all,
    const std::vector<size_t>& indexes) {
  std::vector<device::QueryMetrics> out;
  out.reserve(indexes.size());
  for (size_t i : indexes) out.push_back(all[i]);
  return out;
}

sim::Aggregate Summarize(std::span<const device::QueryMetrics> metrics) {
  return sim::Aggregate::Of(
      "", metrics,
      device::EnergyModel(device::DeviceProfile::J2mePhone(),
                          device::kBitrateStatic3G));
}

graph::Graph LoadNetwork(const std::string& name, const BenchOptions& opts) {
  auto spec = graph::FindNetwork(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "unknown network %s\n", name.c_str());
    std::exit(2);
  }
  auto g = graph::MakeNetwork(*spec, opts.scale);
  if (!g.ok()) {
    std::fprintf(stderr, "network build failed: %s\n",
                 g.status().ToString().c_str());
    std::exit(2);
  }
  std::printf("# network %s at scale %.2f: %zu nodes, %zu arcs\n",
              name.c_str(), opts.scale, g->num_nodes(), g->num_arcs());
  return std::move(g).value();
}

void PrintHeader(const std::string& title, const BenchOptions& opts) {
  std::printf("==================================================\n");
  std::printf("%s\n", title.c_str());
  if (opts.burst > 1) {
    std::printf("scale=%.2f queries=%zu seed=%llu loss=%.4f burst=%u\n",
                opts.scale, opts.queries,
                static_cast<unsigned long long>(opts.seed), opts.loss,
                opts.burst);
  } else {
    std::printf("scale=%.2f queries=%zu seed=%llu loss=%.4f\n", opts.scale,
                opts.queries, static_cast<unsigned long long>(opts.seed),
                opts.loss);
  }
  std::printf("==================================================\n");
}

std::string Mb(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", bytes / (1024.0 * 1024.0));
  return buf;
}

}  // namespace airindex::bench
