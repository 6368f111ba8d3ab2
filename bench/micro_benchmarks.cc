// Micro benchmarks (google-benchmark) for the hot substrate operations:
// Dijkstra throughput, kd-tree construction, border-pair pre-computation,
// the SPQ and AF server builds, network generation, broadcast-cycle
// assembly, and the parallel simulation engine's end-to-end client
// throughput.

#include <benchmark/benchmark.h>

#include "algo/arc_flags.h"
#include "algo/dijkstra.h"
#include "algo/search_workspace.h"
#include "algo/spq.h"
#include "core/border_precompute.h"
#include "core/nr.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "graph/catalog.h"
#include "graph/generator.h"
#include "partition/kd_tree.h"
#include "sim/event_engine.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace {

using namespace airindex;  // NOLINT: benchmark binary

const graph::Graph& BenchGraph() {
  static const graph::Graph& g =
      *new graph::Graph(graph::MakeNetwork(graph::DefaultNetwork(), 0.1)
                            .value());
  return g;
}

void BM_DijkstraFull(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  graph::NodeId source = 0;
  for (auto _ : state) {
    auto tree = algo::DijkstraAll(g, source);
    benchmark::DoNotOptimize(tree.dist.data());
    source = (source + 97) % g.num_nodes();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_nodes()));
}
BENCHMARK(BM_DijkstraFull);

void BM_DijkstraPointToPoint(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  graph::NodeId s = 1, t = static_cast<graph::NodeId>(g.num_nodes() - 1);
  for (auto _ : state) {
    auto p = algo::DijkstraPath(g, s, t);
    benchmark::DoNotOptimize(p.dist);
    s = (s + 131) % g.num_nodes();
    t = (t + 173) % g.num_nodes();
    if (s == t) t = (t + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DijkstraPointToPoint);

// The allocation-free kernel: same searches as BM_DijkstraFull /
// BM_DijkstraPointToPoint, but run inside one reused SearchWorkspace
// (generation-stamped O(1) reset + 4-ary heap) instead of allocating and
// zero-filling dist/parent per call. The pairwise delta is the search-
// kernel half of this PR's win; results are bit-identical (see
// tests/algo/search_workspace_test.cc).
void BM_DijkstraWorkspaceFull(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  algo::SearchWorkspace ws;
  graph::NodeId source = 0;
  for (auto _ : state) {
    algo::DijkstraAll(g, source, ws);
    benchmark::DoNotOptimize(ws.settled());
    source = (source + 97) % g.num_nodes();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_nodes()));
}
BENCHMARK(BM_DijkstraWorkspaceFull);

void BM_DijkstraWorkspacePointToPoint(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  algo::SearchWorkspace ws;
  graph::NodeId s = 1, t = static_cast<graph::NodeId>(g.num_nodes() - 1);
  for (auto _ : state) {
    algo::DijkstraSearch(g, s, t, algo::AllEdges{}, ws);
    benchmark::DoNotOptimize(ws.DistTo(t));
    s = (s + 131) % g.num_nodes();
    t = (t + 173) % g.num_nodes();
    if (s == t) t = (t + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DijkstraWorkspacePointToPoint);

void BM_KdTreeBuild(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  const auto regions = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto kd = partition::KdTreePartitioner::Build(g, regions).value();
    benchmark::DoNotOptimize(kd.splits_bfs().data());
  }
}
BENCHMARK(BM_KdTreeBuild)->Arg(16)->Arg(32)->Arg(64);

void BM_BorderPrecompute(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  auto kd = partition::KdTreePartitioner::Build(
                g, static_cast<uint32_t>(state.range(0)))
                .value();
  for (auto _ : state) {
    auto pre = core::ComputeBorderPrecompute(g, kd.Partition(g)).value();
    benchmark::DoNotOptimize(pre.min_rr.data());
  }
}
// 128 regions take two mask words per region pair.
BENCHMARK(BM_BorderPrecompute)->Arg(16)->Arg(32)->Arg(128)->Unit(
    benchmark::kMillisecond);

// Server builds of the two per-source baselines, timed by wall clock since
// they fan out over every core: SPQ (one all-nodes Dijkstra + coloured
// quadtree per node) and AF (one backward Dijkstra per border node of a
// 16-region kd partition).
void BM_SpqBuild(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  for (auto _ : state) {
    auto idx = algo::SpqIndex::Build(g).value();
    benchmark::DoNotOptimize(idx.IndexBytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_nodes()));
}
BENCHMARK(BM_SpqBuild)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ArcFlagBuild(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  const auto part =
      partition::KdTreePartitioner::Build(g, 16).value().Partition(g);
  for (auto _ : state) {
    auto idx = algo::ArcFlagIndex::Build(g, part.node_region, 16).value();
    benchmark::DoNotOptimize(idx.MemoryBytes());
  }
}
BENCHMARK(BM_ArcFlagBuild)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_NetworkGeneration(benchmark::State& state) {
  graph::GeneratorOptions opts;
  opts.num_nodes = static_cast<uint32_t>(state.range(0));
  opts.num_edges = opts.num_nodes + opts.num_nodes / 10;
  opts.seed = 5;
  for (auto _ : state) {
    auto g = graph::GenerateRoadNetwork(opts).value();
    benchmark::DoNotOptimize(g.num_arcs());
  }
}
BENCHMARK(BM_NetworkGeneration)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMillisecond);

void BM_CycleBuildDj(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  for (auto _ : state) {
    auto sys = core::BuildSystem(g, "DJ", {}).value();
    benchmark::DoNotOptimize(sys->cycle().total_packets());
  }
}
BENCHMARK(BM_CycleBuildDj)->Unit(benchmark::kMillisecond);

void BM_NrClientQuery(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  static const auto& nr =
      *new std::unique_ptr<core::NrSystem>(
          core::NrSystem::Build(g, 32).value());
  static const auto& w =
      *new workload::Workload(workload::GenerateWorkload(g, 64, 9).value());
  broadcast::BroadcastChannel channel(&nr->cycle(), 0.0);
  size_t qi = 0;
  for (auto _ : state) {
    auto m = nr->RunQuery(channel, core::MakeAirQuery(g, w.queries[qi]));
    benchmark::DoNotOptimize(m.distance);
    qi = (qi + 1) % w.queries.size();
  }
}
BENCHMARK(BM_NrClientQuery)->Unit(benchmark::kMillisecond);

// End-to-end RunQuery with and without a reused QueryScratch, per method.
// The fresh/scratch pairs isolate the whole-client half of the win
// (pooled PartialGraph, reused segment/decode buffers, workspace search);
// metrics are byte-identical either way (tests/sim golden test).
void RunQueryBench(benchmark::State& state, const char* method,
                   bool use_scratch) {
  const graph::Graph& g = BenchGraph();
  const core::AirSystem& sys =
      *core::SystemRegistry::Global().Get(g, method).value();
  static const auto& w =
      *new workload::Workload(workload::GenerateWorkload(g, 64, 9).value());
  broadcast::BroadcastChannel channel(&sys.cycle(), 0.0);
  core::QueryScratch scratch;
  size_t qi = 0;
  for (auto _ : state) {
    auto m = sys.RunQuery(channel, core::MakeAirQuery(g, w.queries[qi]), {},
                          use_scratch ? &scratch : nullptr);
    benchmark::DoNotOptimize(m.distance);
    qi = (qi + 1) % w.queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RunQueryDjFresh(benchmark::State& state) {
  RunQueryBench(state, "DJ", false);
}
void BM_RunQueryDjScratch(benchmark::State& state) {
  RunQueryBench(state, "DJ", true);
}
void BM_RunQueryNrFresh(benchmark::State& state) {
  RunQueryBench(state, "NR", false);
}
void BM_RunQueryNrScratch(benchmark::State& state) {
  RunQueryBench(state, "NR", true);
}
void BM_RunQueryLdFresh(benchmark::State& state) {
  RunQueryBench(state, "LD", false);
}
void BM_RunQueryLdScratch(benchmark::State& state) {
  RunQueryBench(state, "LD", true);
}
void BM_RunQueryAfFresh(benchmark::State& state) {
  RunQueryBench(state, "AF", false);
}
void BM_RunQueryAfScratch(benchmark::State& state) {
  RunQueryBench(state, "AF", true);
}
void BM_RunQueryEbFresh(benchmark::State& state) {
  RunQueryBench(state, "EB", false);
}
void BM_RunQueryEbScratch(benchmark::State& state) {
  RunQueryBench(state, "EB", true);
}
void BM_RunQuerySpqFresh(benchmark::State& state) {
  RunQueryBench(state, "SPQ", false);
}
void BM_RunQuerySpqScratch(benchmark::State& state) {
  RunQueryBench(state, "SPQ", true);
}
void BM_RunQueryHiTiFresh(benchmark::State& state) {
  RunQueryBench(state, "HiTi", false);
}
void BM_RunQueryHiTiScratch(benchmark::State& state) {
  RunQueryBench(state, "HiTi", true);
}
BENCHMARK(BM_RunQueryDjFresh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryDjScratch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryNrFresh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryNrScratch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryEbFresh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryEbScratch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryLdFresh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryLdScratch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryAfFresh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryAfScratch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQuerySpqFresh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQuerySpqScratch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryHiTiFresh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunQueryHiTiScratch)->Unit(benchmark::kMillisecond);

// Shared fixture for the engine benchmarks. The leaked Global() registry
// keeps the NR system alive for the process lifetime.
const core::AirSystem& SimBenchSystem() {
  static const core::AirSystem& nr =
      *core::SystemRegistry::Global().Get(BenchGraph(), "NR").value();
  return nr;
}

const workload::Workload& SimBenchWorkload() {
  static const auto& w = *new workload::Workload(
      workload::GenerateWorkload(BenchGraph(), 128, 9).value());
  return w;
}

// End-to-end engine throughput: a whole workload of NR clients fanned
// across N worker threads. items/s is simulated queries per second; the
// Arg sweep exposes the engine's thread scaling in CI perf tracking.
// The lossy variant adds 1% packet loss: repair traffic lengthens each
// client's session, which is the heavy-traffic case the engine exists
// for.
void SimulatorThroughput(benchmark::State& state, double loss_rate) {
  const workload::Workload& w = SimBenchWorkload();
  sim::SimOptions so;
  so.threads = static_cast<unsigned>(state.range(0));
  so.loss = broadcast::LossModel::Independent(loss_rate);
  so.deterministic = true;
  sim::Simulator simulator(BenchGraph(), so);
  for (auto _ : state) {
    auto r = simulator.RunSystem(SimBenchSystem(), w);
    benchmark::DoNotOptimize(r.aggregate.tuning_packets.mean);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.queries.size()));
}

void BM_SimulatorThroughputNr(benchmark::State& state) {
  SimulatorThroughput(state, 0.0);
}
BENCHMARK(BM_SimulatorThroughputNr)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorThroughputNrLossy(benchmark::State& state) {
  SimulatorThroughput(state, 0.01);
}
BENCHMARK(BM_SimulatorThroughputNrLossy)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Fleet latency on the shared station timeline: the same NR fleet, but
// arriving over time (Poisson, 200 clients/s) on one event-engine station
// instead of each query privately replaying its own cycle. items/s is
// simulated queries per second; the thread sweep tracks the event
// engine's scaling next to the batch engine's.
const workload::Workload& EventBenchWorkload() {
  static const auto& w = *new workload::Workload([] {
    workload::WorkloadSpec spec;
    spec.count = 128;
    spec.seed = 9;
    spec.arrival.kind = workload::ArrivalSpec::Kind::kPoisson;
    spec.arrival.rate_per_second = 200.0;
    return workload::GenerateWorkload(BenchGraph(), spec).value();
  }());
  return w;
}

void EventEngineFleet(benchmark::State& state, double loss_rate,
                      uint32_t subchannels) {
  const workload::Workload& w = EventBenchWorkload();
  sim::EventOptions eo;
  eo.threads = static_cast<unsigned>(state.range(0));
  eo.loss = broadcast::LossModel::Independent(loss_rate);
  eo.subchannels = subchannels;
  eo.deterministic = true;
  sim::EventEngine engine(BenchGraph(), eo);
  for (auto _ : state) {
    auto r = engine.RunSystem(SimBenchSystem(), w);
    benchmark::DoNotOptimize(r.aggregate.wait_ms.mean);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.queries.size()));
}

void BM_EventEngineFleetNr(benchmark::State& state) {
  EventEngineFleet(state, 0.0, 1);
}
BENCHMARK(BM_EventEngineFleetNr)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EventEngineFleetNrLossySharded(benchmark::State& state) {
  EventEngineFleet(state, 0.01, 4);
}
BENCHMARK(BM_EventEngineFleetNrLossySharded)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Registry hit-path contention: every simulation worker resolves its
// systems through SystemRegistry::Get, so a hot Get must not serialize
// readers. The threaded sweep pins the shared-lock fast path (a hit while
// the cache is under capacity takes no exclusive lock); before the fix,
// every hit took the write lock to stamp recency and the threads=4 row
// collapsed to the single-lock rate.
void BM_RegistryGetHit(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  // Warm the entry once so the measured loop is pure hits.
  benchmark::DoNotOptimize(
      core::SystemRegistry::Global().Get(g, "DJ").value().get());
  for (auto _ : state) {
    auto sys = core::SystemRegistry::Global().Get(g, "DJ").value();
    benchmark::DoNotOptimize(sys.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryGetHit)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
