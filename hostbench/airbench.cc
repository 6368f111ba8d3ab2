// airbench — one whole airindex call, timed from outside.
//
// Makes the public calls `airindex_cli run` / `airindex_cli scenario`
// make, in the same order, for one named workload, and prints one JSON
// object on stdout: host-time phases, peak RSS, the simulated-output
// digest and the answer check. Run by hostbench/run.py, one process per
// call, so every call starts cold like the CLI does.
//
//   airbench --workload=NAME --seed=N
//       [--mode=call|setup|trace|record] [--repeat=R] [--pin=N]
//       [--report=FILE] [--spec-out=FILE] [--trace-out=FILE]
//       [--run-id=ID] [--seeds=N,N,...]
//
//   call    the untraced whole call (end-to-end metrics), then R more
//           query phases on the call's systems and workload, each
//           checked against the call's digest. With --pin=N, the call's
//           query phase runs on the CPUs that start at the N-th allowed
//           CPU, and its k-th repeat on those that start at the (N+k)-th
//   setup   the call's set-up steps only (extra setup_s samples)
//   trace   the same call with a span around every public call, then
//           per-layer probes; spans go to --trace-out as JSON lines
//   record  digests of the listed seeds (simulated outputs, no timing)
//
// The benchmark seed N maps to the program seed kBaseSeed + N, so seed 0
// is the CLI's default run.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sched.h>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/dijkstra.h"
#include "algo/search_workspace.h"
#include "broadcast/channel.h"
#include "broadcast/fec.h"
#include "core/air_system.h"
#include "core/border_precompute.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "device/metrics.h"
#include "graph/catalog.h"
#include "partition/kd_tree.h"
#include "sim/aggregate.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "sim/scenario_catalog.h"
#include "sim/simulator.h"
#include "workload/workload.h"

using namespace airindex;  // NOLINT: benchmark binary

namespace {

constexpr uint64_t kBaseSeed = 20100913;  // airindex_cli's default --seed

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "airbench: %s\n", msg.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

/// Pins the calling thread, and so the worker threads it starts, to
/// `count` consecutive CPUs of the process's allowed set, starting at the
/// `first`-th (modulo the set), until it goes out of scope. A negative
/// `first` pins nothing. A co-tenant that slows one core then slows only
/// the query phases that run there, not a whole run.
class PinnedCpus {
 public:
  PinnedCpus(int first, unsigned count) {
    if (first < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    std::vector<int> allowed;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) allowed.push_back(c);
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    for (size_t i = 0; i < std::min<size_t>(count, allowed.size()); ++i) {
      CPU_SET(allowed[(first + i) % allowed.size()], &set);
    }
    active_ = sched_setaffinity(0, sizeof(set), &set) == 0;
  }
  ~PinnedCpus() {
    if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedCpus(const PinnedCpus&) = delete;
  PinnedCpus& operator=(const PinnedCpus&) = delete;

 private:
  cpu_set_t saved_;
  bool active_ = false;
};

// ---------------------------------------------------------------- workloads

/// A `run` call: one batch through sim::Simulator.
struct BatchSpec {
  std::string network;
  double scale;
  std::vector<std::string> systems;
  size_t queries;
  double loss;
  unsigned threads;
};

/// A `scenario` call: a catalog scenario with the CLI's overrides.
struct ScenarioSpec {
  std::string name;
  double scale;
  size_t queries;
  unsigned threads;
};

struct WorkloadDef {
  std::string name;
  std::optional<BatchSpec> batch;
  std::optional<ScenarioSpec> scenario;
};

/// The benchmark's workloads. The flags are exactly the CLI's:
///   index-build        run Germany --scale=1.0 --systems=NR,EB
///                          --queries=2000 --threads=1
///   fullcycle-lossy    run Germany --scale=0.3 --systems=DJ,LD,AF
///                          --queries=1000 --loss=0.02 --threads=1
///   commuter-sessions  scenario --name=commuter-sessions --scale=0.1
///                          --queries=2048 --threads=2
std::vector<WorkloadDef> Workloads() {
  return {
      {"index-build",
       BatchSpec{"Germany", 1.0, {"NR", "EB"}, 2000, 0.0, 1}, std::nullopt},
      {"fullcycle-lossy",
       BatchSpec{"Germany", 0.3, {"DJ", "LD", "AF"}, 1000, 0.02, 1},
       std::nullopt},
      {"commuter-sessions", std::nullopt,
       ScenarioSpec{"commuter-sessions", 0.1, 2048, 2}},
  };
}

/// airindex_cli run's system knobs (--regions=32 --landmarks=4 defaults).
core::SystemParams RunParams() {
  core::SystemParams params;
  params.nr_regions = 32;
  params.eb_regions = 32;
  params.arcflag_regions = 32;
  params.hiti_regions = 32;
  params.landmarks = 4;
  return params;
}

workload::WorkloadSpec RunWorkloadSpec(const BatchSpec& b, uint64_t seed) {
  workload::WorkloadSpec w;
  w.count = b.queries;
  w.seed = seed;
  w.arrival.kind = workload::ArrivalSpec::Kind::kNone;
  w.arrival.rate_per_second = 50.0;
  return w;
}

sim::SimOptions RunSimOptions(const BatchSpec& b, uint64_t seed,
                              bool deterministic) {
  sim::SimOptions so;
  so.threads = b.threads;
  so.repeat = 1;
  so.loss = broadcast::LossModel::Of(b.loss, 1, 0.0);
  so.fec = broadcast::FecScheme::OfRate(0.0);
  so.loss_seed = seed;
  so.deterministic = deterministic;
  so.encoding = RunParams().build.encoding;
  return so;
}

/// The catalog scenario with airindex_cli scenario's --scale/--queries
/// overrides applied, and the benchmark's seed.
sim::Scenario MakeScenario(const ScenarioSpec& spec, uint64_t seed) {
  sim::Scenario s = Must(sim::FindScenario(spec.name), "FindScenario");
  s.scale = spec.scale;
  for (auto& g : s.groups) {
    if (g.queries > 0) {
      g.weight = static_cast<double>(g.queries);
      g.queries = 0;
    }
  }
  s.total_queries = spec.queries;
  s.seed = seed;
  return s;
}

// ------------------------------------------------------------------ tracing

/// In-memory span recorder: spans are kept until the run ends and are
/// written out once (JSON lines).
class Tracer {
 public:
  explicit Tracer(std::string run_id)
      : run_id_(std::move(run_id)), epoch_(Clock::now()) {}

  /// Opens a span under the innermost open span; returns its id.
  size_t Begin(std::string name) {
    const int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    spans_.push_back({std::move(name), Now(), 0.0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void End(size_t id) {
    spans_[id].end = Now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  double Seconds(size_t id) const { return spans_[id].end - spans_[id].start; }

  /// Duration of the first span named `name`.
  double SecondsOf(const std::string& name) const {
    for (const Span& sp : spans_) {
      if (sp.name == name) return sp.end - sp.start;
    }
    Die("no span named " + name);
  }

  /// Sum of the durations of the direct children of span `id`.
  double ChildSeconds(size_t id) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.parent == static_cast<int>(id)) s += sp.end - sp.start;
    }
    return s;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"run\": \"%s\", \"id\": %zu, \"parent\": %d, "
                   "\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f}\n",
                   run_id_.c_str(), i, s.parent, s.name.c_str(), s.start,
                   s.end);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };
  double Now() const { return SecondsSince(epoch_); }

  std::string run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a null tracer records nothing (the untraced call).
class Scope {
 public:
  Scope(Tracer* t, std::string name)
      : t_(t), id_(t != nullptr ? t->Begin(std::move(name)) : 0) {}
  ~Scope() { Close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void Close() {
    if (t_ != nullptr && !closed_) t_->End(id_);
    closed_ = true;
  }
  size_t id() const { return id_; }

 private:
  Tracer* t_;
  size_t id_;
  bool closed_ = false;
};

// ------------------------------------------------------- checks and digests

/// FNV-1a 64 over the simulated outputs.
class Digest {
 public:
  template <typename T>
  void Add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) Byte(b);
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }
  /// Every QueryMetrics field except the wall-clock cpu_ms.
  void Add(const device::QueryMetrics& m) {
    Add(m.tuning_packets);
    Add(m.latency_packets);
    Add(m.wait_packets);
    Add(m.wait_ms);
    Add(m.listen_ms);
    Add(m.corrupted_packets);
    Add(m.fec_recovered);
    Add(m.wait_slots);
    Add(m.latency_slots);
    Add(m.peak_memory_bytes);
    Add(m.distance);
    Add(m.regions_received);
    Add(m.cache_hits);
    Add(static_cast<uint8_t>(m.warm));
    Add(static_cast<uint8_t>(m.ok));
    Add(static_cast<uint8_t>(m.memory_exceeded));
  }
  void Add(const sim::SystemResult& r, uint32_t cycle_packets) {
    Add(r.system);
    Add(cycle_packets);
    Add(r.per_query.size());
    for (const auto& m : r.per_query) Add(m);
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void Byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Query-level outcome of one call: answers against workload::Query
/// true_dist, and the !ok share.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  size_t mismatches = 0;
  Digest digest;

  void Check(const sim::SystemResult& r, const workload::Workload& w) {
    if (r.per_query.size() != w.queries.size()) {
      Die(r.system + ": result count differs from the workload's");
    }
    for (size_t i = 0; i < w.queries.size(); ++i) {
      const device::QueryMetrics& m = r.per_query[i];
      ++attempted;
      if (!m.ok) {
        ++failed;
      } else if (m.distance != w.queries[i].true_dist) {
        if (mismatches < 5) {
          std::fprintf(stderr,
                       "answer mismatch: %s query %zu (%u -> %u): got %llu, "
                       "want %llu\n",
                       r.system.c_str(), i, w.queries[i].source,
                       w.queries[i].target,
                       static_cast<unsigned long long>(m.distance),
                       static_cast<unsigned long long>(w.queries[i].true_dist));
        }
        ++mismatches;
      }
    }
  }
};

/// Process high-water RSS in MiB (Linux VmHWM).
double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ------------------------------------------------------------- whole calls

/// Everything a call leaves behind for the checks and the probes.
struct CallState {
  std::unique_ptr<graph::Graph> g;
  core::SharedSystems systems;
  // Batch calls: the generated workload and the report.
  workload::Workload w;
  sim::BatchResult batch;
  // Scenario calls.
  sim::Scenario scenario;
  sim::ScenarioResult scenario_result;

  std::string report;
  bool setup_only = false;  // stop after set-up (--mode=setup)
  int pin = -1;             // PinnedCpus start of the query phase (--pin)
  double setup_s = 0.0;
  double query_s = 0.0;
  double total_s = 0.0;
  size_t sim_queries = 0;  // queries x systems simulated

  // Traced calls: span ids.
  size_t call_span = 0;
  size_t registry_span = 0;
  std::vector<double> run_system_s;  // per system, batch only
};

/// One `airindex_cli run` call. `tracer` non-null records the spans and
/// runs each system through Simulator::RunSystem under its own span
/// (Simulator::Run is exactly that loop plus the batch header, which an
/// empty Run supplies).
void RunBatchCall(const BatchSpec& b, uint64_t seed, bool deterministic,
                  Tracer* tracer, CallState* st) {
  const core::SystemParams params = RunParams();
  const auto t0 = Clock::now();
  Scope call(tracer, "call");
  st->call_span = call.id();
  graph::NetworkSpec spec;
  {
    Scope s(tracer, "graph.find");
    spec = Must(graph::FindNetwork(b.network), "FindNetwork");
  }
  {
    Scope s(tracer, "graph.make");
    st->g = std::make_unique<graph::Graph>(
        Must(graph::MakeNetwork(spec, b.scale), "MakeNetwork"));
  }
  std::vector<const core::AirSystem*> ptrs;
  {
    Scope s(tracer, "core.registry");
    st->registry_span = s.id();
    for (const std::string& name : b.systems) {
      Scope get(tracer, "core.registry.get." + name);
      st->systems.push_back(Must(
          core::SystemRegistry::Global().Get(*st->g, name, params),
          "SystemRegistry::Get"));
      ptrs.push_back(st->systems.back().get());
    }
  }
  const workload::WorkloadSpec wspec = RunWorkloadSpec(b, seed);
  {
    Scope s(tracer, "workload.gen");
    st->w = Must(workload::GenerateWorkload(*st->g, wspec), "GenerateWorkload");
  }
  st->setup_s = SecondsSince(t0);
  if (st->setup_only) return;

  PinnedCpus pinned(st->pin, b.threads);
  const auto tq = Clock::now();
  {
    Scope s(tracer, "sim.run");
    sim::Simulator simulator(*st->g, RunSimOptions(b, seed, deterministic));
    if (tracer == nullptr) {
      st->batch = simulator.Run(ptrs, st->w);
    } else {
      st->batch = simulator.Run({}, st->w);
      const auto start = Clock::now();
      for (const core::AirSystem* sys : ptrs) {
        Scope rs(tracer, "sim.run_system." + std::string(sys->name()));
        st->batch.systems.push_back(simulator.RunSystem(*sys, st->w));
        rs.Close();
        st->run_system_s.push_back(tracer->Seconds(rs.id()));
      }
      st->batch.wall_seconds = SecondsSince(start);
    }
  }
  st->query_s = SecondsSince(tq);
  {
    Scope s(tracer, "sim.report");
    st->report = sim::ToJson(st->batch);
  }
  call.Close();
  st->total_s = SecondsSince(t0);
  st->sim_queries = st->w.queries.size() * ptrs.size();
}

/// One `airindex_cli scenario` call: the network and the registry builds
/// are made here, ahead of ScenarioRunner::Run(s, g), so that set-up and
/// query phase can be timed apart (the runner's own registry Get then
/// hits). The runner generates each group's workload itself.
void RunScenarioCall(const ScenarioSpec& spec, uint64_t seed,
                     bool deterministic, Tracer* tracer, CallState* st) {
  const auto t0 = Clock::now();
  Scope call(tracer, "call");
  st->call_span = call.id();
  {
    Scope s(tracer, "scenario.find");
    st->scenario = MakeScenario(spec, seed);
  }
  graph::NetworkSpec net;
  {
    Scope s(tracer, "graph.find");
    net = Must(graph::FindNetwork(st->scenario.network), "FindNetwork");
  }
  {
    Scope s(tracer, "graph.make");
    st->g = std::make_unique<graph::Graph>(
        Must(graph::MakeNetwork(net, st->scenario.scale), "MakeNetwork"));
  }
  {
    Scope s(tracer, "core.registry");
    st->registry_span = s.id();
    for (const std::string& name : st->scenario.EffectiveSystems()) {
      Scope get(tracer, "core.registry.get." + name);
      st->systems.push_back(
          Must(core::SystemRegistry::Global().Get(*st->g, name,
                                                  st->scenario.params),
               "SystemRegistry::Get"));
    }
  }
  st->setup_s = SecondsSince(t0);
  if (st->setup_only) return;

  PinnedCpus pinned(st->pin, spec.threads);
  const auto tq = Clock::now();
  {
    Scope s(tracer, "sim.run");
    sim::ScenarioRunner::RunOptions ro;
    ro.threads = spec.threads;
    ro.deterministic = deterministic;
    st->scenario_result = Must(
        sim::ScenarioRunner(ro).Run(st->scenario, *st->g), "ScenarioRunner");
  }
  st->query_s = SecondsSince(tq);
  {
    Scope s(tracer, "sim.report");
    st->report = sim::ScenarioReportToJson(st->scenario_result);
  }
  call.Close();
  st->total_s = SecondsSince(t0);
  st->sim_queries = st->scenario_result.num_queries * st->systems.size();
}

/// The workload a scenario group ran (regenerated from the seed the
/// runner recorded), for the answer check.
workload::Workload GroupWorkload(const graph::Graph& g,
                                 const sim::GroupResult& gr) {
  workload::WorkloadSpec wspec = gr.spec.workload;
  wspec.count = gr.spec.queries;
  wspec.seed = gr.workload_seed;
  return Must(workload::GenerateWorkload(g, wspec), "GenerateWorkload");
}

/// Answer check and digest over a finished call.
Outcome CheckCall(const graph::Graph& g, const CallState& st) {
  Outcome o;
  if (!st.scenario_result.groups.empty()) {
    for (const sim::GroupResult& gr : st.scenario_result.groups) {
      const workload::Workload w = GroupWorkload(g, gr);
      o.digest.Add(gr.spec.name);
      for (size_t si = 0; si < gr.systems.size(); ++si) {
        o.Check(gr.systems[si], w);
        o.digest.Add(gr.systems[si],
                     st.systems.at(si)->cycle().total_packets());
      }
    }
  } else {
    for (size_t si = 0; si < st.batch.systems.size(); ++si) {
      o.Check(st.batch.systems[si], st.w);
      o.digest.Add(st.batch.systems[si],
                   st.systems.at(si)->cycle().total_packets());
    }
  }
  return o;
}

// ------------------------------------------------------------------- output

/// Minimal JSON object writer for the one-line result.
class JsonLine {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    Raw(key, buf);
  }
  void Int(const std::string& key, size_t v) { Raw(key, std::to_string(v)); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Obj(const std::string& key, const JsonLine& o) { Raw(key, o.Text()); }
  void Nums(const std::string& key, const std::vector<double>& v) {
    std::string list;
    for (const double x : v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.9g", list.empty() ? "" : ", ", x);
      list += buf;
    }
    Raw(key, "[" + list + "]");
  }
  std::string Text() const { return "{" + body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + v;
  }
  std::string body_;
};

void WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fputs(text.c_str(), f);
  if (std::fclose(f) != 0) Die("cannot write " + path);
}

void AddOutcome(const Outcome& o, JsonLine* out) {
  out->Int("queries_attempted", o.attempted);
  out->Int("queries_failed", o.failed);
  out->Int("answer_mismatches", o.mismatches);
  out->Str("digest", o.digest.Hex());
}

// ------------------------------------------------------------------- probes

/// Host time of each layer's public calls, made from outside after the
/// traced call. Results land in `layers`, per system (`<name>.<SYS>`) and
/// pooled over the workload's systems (`<name>`); every probe runs under a
/// span.
class Probes {
 public:
  Probes(const WorkloadDef& def, const CallState& st, Tracer* tracer,
         JsonLine* layers)
      : def_(def), st_(st), tracer_(tracer), layers_(layers) {}

  void RunAll() {
    Scope probes(tracer_, "probes");
    const core::SystemParams params =
        def_.batch ? RunParams() : st_.scenario.params;
    PartitionAndPrecompute(params);
    ColdBuilds(params);
    Workloads();
    Dijkstra();
    for (size_t si = 0; si < st_.systems.size(); ++si) {
      const core::AirSystem& sys = *st_.systems[si];
      Cycle(sys);
      Queries(sys, si);
    }
    Pooled();
  }

  /// Σ direct RunQuery seconds over every system.
  double direct_query_s() const { return pool_.queries.sum_s; }

 private:
  void PartitionAndPrecompute(const core::SystemParams& params) {
    std::optional<partition::Partitioning> part;
    {
      Scope s(tracer_, "partition.kd");
      auto kd = Must(partition::KdTreePartitioner::Build(*st_.g,
                                                         params.nr_regions),
                     "KdTreePartitioner::Build");
      part = kd.Partition(*st_.g);
      s.Close();
      layers_->Num("partition.kd_s", tracer_->Seconds(s.id()));
    }
    Scope s(tracer_, "core.precompute");
    auto pre = Must(core::ComputeBorderPrecompute(
                        *st_.g, std::move(*part),
                        params.build.precompute_threads),
                    "ComputeBorderPrecompute");
    s.Close();
    layers_->Num("core.precompute_s", tracer_->Seconds(s.id()));
  }

  void ColdBuilds(const core::SystemParams& params) {
    for (const auto& sys : st_.systems) {
      const std::string name(sys->name());
      Scope s(tracer_, "core.build." + name);
      auto built = Must(core::BuildSystem(*st_.g, name, params), "BuildSystem");
      s.Close();
      layers_->Num("core.build_s." + name, tracer_->Seconds(s.id()));
      pool_.build_s += tracer_->Seconds(s.id());
    }
  }

  /// The workloads the call simulated: the batch workload, or every
  /// scenario group's (the runner generates them inside Run, so the
  /// scenario times them here).
  void Workloads() {
    if (def_.batch) {
      workloads_.push_back(&st_.w);
      return;
    }
    Scope s(tracer_, "workload.gen");
    for (const sim::GroupResult& gr : st_.scenario_result.groups) {
      group_workloads_.push_back(GroupWorkload(*st_.g, gr));
    }
    s.Close();
    layers_->Num("workload.gen_s", tracer_->Seconds(s.id()));
    for (const auto& w : group_workloads_) workloads_.push_back(&w);
  }

  void Dijkstra() {
    Scope span(tracer_, "algo.dijkstra");
    algo::SearchWorkspace ws;
    std::vector<double> us;
    for (const workload::Workload* w : workloads_) {
      for (const workload::Query& q : w->queries) {
        const auto t = Clock::now();
        algo::DijkstraSearch(*st_.g, q.source, q.target, algo::AllEdges{},
                             ws);
        us.push_back(SecondsSince(t) * 1e6);
        if (ws.DistTo(q.target) != q.true_dist) {
          Die("DijkstraSearch disagrees with the workload's true_dist");
        }
      }
    }
    layers_->Num("algo.dijkstra_us_p50", sim::Percentile(us, 0.5));
  }

  /// The loss model of the channel the workload's clients hear: the batch
  /// channel, or the first scenario group's.
  broadcast::LossModel Loss() const {
    if (def_.batch) return broadcast::LossModel::Of(def_.batch->loss, 1, 0.0);
    return st_.scenario_result.groups.front().spec.loss;
  }

  void Cycle(const core::AirSystem& sys) {
    const std::string name(sys.name());
    const broadcast::BroadcastCycle& cycle = sys.cycle();
    const uint32_t total = cycle.total_packets();
    layers_->Int("broadcast.cycle_packets." + name, total);
    pool_.cycle_packets += total;

    uint64_t sink = 0;
    PerCall("broadcast.packet_at", name, total, &pool_.packet_at, [&] {
      for (uint32_t pos = 0; pos < total; ++pos) {
        sink += cycle.PacketAt(pos).chunk.size();
      }
    });
    const broadcast::BroadcastChannel channel(&cycle, Loss(), kBaseSeed);
    broadcast::ClientSession session(&channel, 0);
    PerCall("broadcast.receive", name, total, &pool_.receive, [&] {
      for (uint32_t i = 0; i < total; ++i) {
        auto p = session.ReceiveNext();
        if (p.has_value()) sink += p->chunk.size();
      }
    });
    if (sink == 0) Die("empty cycle");
  }

  /// Time and count of a per-packet call, summed over passes or systems.
  struct PerCallTally {
    double seconds = 0.0;
    uint64_t calls = 0;
  };

  /// Repeats `pass` (`calls_per_pass` calls, one whole cycle) for at least
  /// 20 ms under span `<layer>.<SYS>`, and records `<layer>_ns.<SYS>`.
  template <typename Pass>
  void PerCall(const std::string& layer, const std::string& name,
               uint32_t calls_per_pass, PerCallTally* pool, Pass pass) {
    Scope s(tracer_, layer + "." + name);
    const auto t = Clock::now();
    PerCallTally tally;
    do {
      pass();
      tally.calls += calls_per_pass;
    } while (SecondsSince(t) < 0.02);
    tally.seconds = SecondsSince(t);
    layers_->Num(layer + "_ns." + name, NsPer(tally));
    pool->seconds += tally.seconds;
    pool->calls += tally.calls;
  }

  static double NsPer(const PerCallTally& t) {
    return t.seconds * 1e9 / static_cast<double>(t.calls);
  }

  /// RunQuery figures of one system, or summed over systems.
  struct QueryTally {
    std::vector<double> us;  // per direct RunQuery
    double sum_s = 0.0;      // Σ direct RunQuery time
    double cpu_ms = 0.0;     // Σ QueryMetrics::cpu_ms
    uint64_t tuning = 0;     // Σ tuning_packets
    // The traced call's engine results:
    size_t queries = 0;
    size_t failed = 0;
    size_t warm = 0;
    uint64_t cache_hits = 0;

    void Add(const QueryTally& o) {
      us.insert(us.end(), o.us.begin(), o.us.end());
      sum_s += o.sum_s;
      cpu_ms += o.cpu_ms;
      tuning += o.tuning;
      queries += o.queries;
      failed += o.failed;
      warm += o.warm;
      cache_hits += o.cache_hits;
    }
  };

  /// Direct AirSystem::RunQuery with one reused scratch, cold clients, on
  /// the per-query channels the batch engine builds (QueryLossSeed).
  void Queries(const core::AirSystem& sys, size_t si) {
    const std::string name(sys.name());
    Scope span(tracer_, "core.query." + name);
    core::QueryScratch scratch;
    QueryTally tally;
    for (size_t wi = 0; wi < workloads_.size(); ++wi) {
      const workload::Workload& w = *workloads_[wi];
      // The batch engine's channel and client, or this scenario group's.
      const sim::GroupResult* gr =
          def_.batch ? nullptr : &st_.scenario_result.groups[wi];
      const broadcast::LossModel loss = gr ? gr->spec.loss : Loss();
      const uint64_t loss_seed = gr ? gr->loss_seed : st_.batch.loss_seed;
      const core::ClientOptions client =
          gr ? gr->spec.client : core::ClientOptions{};
      const sim::SystemResult& engine =
          gr ? gr->systems[si] : st_.batch.systems[si];
      for (size_t i = 0; i < w.queries.size(); ++i) {
        const broadcast::BroadcastChannel channel(
            &sys.cycle(), loss, sim::QueryLossSeed(loss_seed, i));
        const core::AirQuery q = core::MakeAirQuery(*st_.g, w.queries[i]);
        const auto t = Clock::now();
        const device::QueryMetrics m =
            sys.RunQuery(channel, q, client, &scratch);
        const double s = SecondsSince(t);
        tally.us.push_back(s * 1e6);
        tally.sum_s += s;
        tally.cpu_ms += m.cpu_ms;
        tally.tuning += m.tuning_packets;
        if (m.ok && m.distance != w.queries[i].true_dist) {
          Die(name + ": direct RunQuery returned a wrong distance");
        }
      }
      for (const device::QueryMetrics& m : engine.per_query) {
        ++tally.queries;
        tally.failed += m.ok ? 0 : 1;
        tally.warm += m.warm ? 1 : 0;
        tally.cache_hits += m.cache_hits;
      }
    }
    span.Close();
    QueryFigures("." + name, tally);
    pool_.queries.Add(tally);
  }

  /// Writes `t` as the core.* query metrics; `suffix` is ".<SYS>", or
  /// empty for the workload-wide figures.
  void QueryFigures(const std::string& suffix, const QueryTally& t) {
    const double n = static_cast<double>(std::max<size_t>(t.queries, 1));
    layers_->Num("core.query_us_p50" + suffix, sim::Percentile(t.us, 0.5));
    layers_->Num("core.query_us_p99" + suffix, sim::Percentile(t.us, 0.99));
    layers_->Num("core.ns_per_tuning_pkt" + suffix,
                 t.tuning > 0 ? t.sum_s * 1e9 / static_cast<double>(t.tuning)
                              : 0.0);
    layers_->Num("core.decode_search_frac" + suffix,
                 t.sum_s > 0 ? t.cpu_ms / 1e3 / t.sum_s : 0.0);
    layers_->Num("core.warm_frac" + suffix, static_cast<double>(t.warm) / n);
    layers_->Num("core.cache_hits_per_query" + suffix,
                 static_cast<double>(t.cache_hits) / n);
    layers_->Num("core.failed_frac" + suffix,
                 static_cast<double>(t.failed) / n);
  }

  /// The workload-wide figures: sums, or ratios of sums, over systems.
  void Pooled() {
    layers_->Num("core.build_s", pool_.build_s);
    layers_->Int("broadcast.cycle_packets", pool_.cycle_packets);
    layers_->Num("broadcast.packet_at_ns", NsPer(pool_.packet_at));
    layers_->Num("broadcast.receive_ns", NsPer(pool_.receive));
    QueryFigures("", pool_.queries);
  }

  const WorkloadDef& def_;
  const CallState& st_;
  Tracer* tracer_;
  JsonLine* layers_;
  std::vector<workload::Workload> group_workloads_;
  std::vector<const workload::Workload*> workloads_;
  struct {
    double build_s = 0.0;
    uint64_t cycle_packets = 0;
    PerCallTally packet_at;
    PerCallTally receive;
    QueryTally queries;
  } pool_;  // summed over the workload's systems
};

// ------------------------------------------------------------------- modes

struct Args {
  std::string workload;
  uint64_t seed = 0;
  std::string mode = "call";
  std::string report;
  std::string spec_out;
  std::string trace_out;
  std::string run_id = "run";
  std::vector<uint64_t> seeds;
  uint64_t repeat = 0;
  int pin = -1;
};

const WorkloadDef& FindWorkload(const std::string& name) {
  static const std::vector<WorkloadDef> defs = Workloads();
  for (const WorkloadDef& d : defs) {
    if (d.name == name) return d;
  }
  Die("unknown workload \"" + name +
      "\" (index-build | fullcycle-lossy | commuter-sessions)");
}

void RunCall(const WorkloadDef& def, uint64_t seed, bool deterministic,
             Tracer* tracer, CallState* st) {
  if (def.batch) {
    RunBatchCall(*def.batch, seed, deterministic, tracer, st);
  } else {
    RunScenarioCall(*def.scenario, seed, deterministic, tracer, st);
  }
}

/// Runs the call's query phase again (step 4 only: the same
/// Simulator::Run or ScenarioRunner::Run on the call's network, systems and
/// workload) and returns its host seconds. The results replace the call's.
double RepeatQueryPhase(const WorkloadDef& def, uint64_t seed, int pin,
                        CallState* st) {
  PinnedCpus pinned(pin, def.batch ? def.batch->threads
                                   : def.scenario->threads);
  const auto tq = Clock::now();
  if (def.batch) {
    std::vector<const core::AirSystem*> ptrs;
    for (const auto& sys : st->systems) ptrs.push_back(sys.get());
    st->batch = sim::Simulator(*st->g, RunSimOptions(*def.batch, seed, true))
                    .Run(ptrs, st->w);
  } else {
    sim::ScenarioRunner::RunOptions ro;
    ro.threads = def.scenario->threads;
    ro.deterministic = true;
    st->scenario_result = Must(
        sim::ScenarioRunner(ro).Run(st->scenario, *st->g), "ScenarioRunner");
  }
  return SecondsSince(tq);
}

int ModeCall(const WorkloadDef& def, const Args& a) {
  CallState st;
  st.pin = a.pin;
  RunCall(def, kBaseSeed + a.seed, /*deterministic=*/true, nullptr, &st);
  const double rss = PeakRssMib();
  const Outcome o = CheckCall(*st.g, st);
  std::vector<double> repeat_query_s;
  size_t repeats_differing = 0;  // repeats whose digest is not the call's
  for (uint64_t r = 0; r < a.repeat; ++r) {
    const int pin = a.pin < 0 ? -1 : static_cast<int>(a.pin + r + 1);
    repeat_query_s.push_back(
        RepeatQueryPhase(def, kBaseSeed + a.seed, pin, &st));
    if (CheckCall(*st.g, st).digest.Hex() != o.digest.Hex()) {
      ++repeats_differing;
    }
  }
  if (!a.report.empty()) WriteFile(a.report, st.report);
  if (!a.spec_out.empty() && def.scenario) {
    WriteFile(a.spec_out, sim::ScenarioToJson(st.scenario));
  }
  JsonLine out;
  out.Str("workload", def.name);
  out.Num("setup_s", st.setup_s);
  out.Num("query_s", st.query_s);
  out.Num("total_s", st.total_s);
  out.Int("sim_queries", st.sim_queries);
  out.Num("peak_rss_mb", rss);
  out.Nums("repeat_query_s", repeat_query_s);
  out.Int("repeats_differing", repeats_differing);
  AddOutcome(o, &out);
  std::printf("%s\n", out.Text().c_str());
  return o.mismatches == 0 && repeats_differing == 0 ? 0 : 1;
}

int ModeSetup(const WorkloadDef& def, const Args& a) {
  CallState st;
  st.setup_only = true;
  RunCall(def, kBaseSeed + a.seed, /*deterministic=*/true, nullptr, &st);
  JsonLine out;
  out.Str("workload", def.name);
  out.Num("setup_s", st.setup_s);
  std::printf("%s\n", out.Text().c_str());
  return 0;
}

int ModeTrace(const WorkloadDef& def, const Args& a) {
  Tracer tracer(a.run_id);
  CallState st;
  // Non-deterministic: cpu_ms is read for decode_search_frac. The digest
  // leaves cpu_ms out, so it still matches the untraced call's.
  RunCall(def, kBaseSeed + a.seed, /*deterministic=*/false, &tracer, &st);
  const Outcome o = CheckCall(*st.g, st);

  JsonLine layers;
  layers.Num("graph.make_s", tracer.SecondsOf("graph.make"));
  layers.Num("core.registry_s", tracer.Seconds(st.registry_span));
  if (def.batch) layers.Num("workload.gen_s", tracer.SecondsOf("workload.gen"));
  layers.Num("sim.report_s", tracer.SecondsOf("sim.report"));
  double run_s = 0.0;
  for (size_t si = 0; si < st.systems.size(); ++si) {
    double s = 0.0;
    if (def.batch) {
      s = st.run_system_s[si];
    } else {
      for (const sim::GroupResult& gr : st.scenario_result.groups) {
        s += gr.systems[si].wall_seconds;
      }
    }
    layers.Num("sim.run_s." + std::string(st.systems[si]->name()), s);
    run_s += s;
  }
  layers.Num("sim.run_s", run_s);

  Probes probes(def, st, &tracer, &layers);
  probes.RunAll();
  layers.Num("sim.overhead_frac",
             run_s > 0 ? (run_s - probes.direct_query_s()) / run_s : 0.0);

  if (!a.trace_out.empty() && !tracer.Write(a.trace_out)) {
    Die("cannot write " + a.trace_out);
  }
  JsonLine out;
  out.Str("workload", def.name);
  out.Num("total_s", st.total_s);
  out.Num("top_level_coverage",
          tracer.ChildSeconds(st.call_span) / tracer.Seconds(st.call_span));
  AddOutcome(o, &out);
  out.Obj("layers", layers);
  std::printf("%s\n", out.Text().c_str());
  return o.mismatches == 0 ? 0 : 1;
}

/// Digests of the listed seeds: one network and one set of builds, every seed
/// simulated on all cores (the engines' outputs are identical for every
/// thread count).
int ModeRecord(const WorkloadDef& def, const Args& a) {
  const unsigned threads = 0;
  std::unique_ptr<graph::Graph> g;
  std::optional<sim::Scenario> base;
  if (def.batch) {
    g = std::make_unique<graph::Graph>(Must(
        graph::MakeNetwork(Must(graph::FindNetwork(def.batch->network),
                                "FindNetwork"),
                           def.batch->scale),
        "MakeNetwork"));
  } else {
    base = MakeScenario(*def.scenario, kBaseSeed);
    g = std::make_unique<graph::Graph>(Must(
        graph::MakeNetwork(Must(graph::FindNetwork(base->network),
                                "FindNetwork"),
                           base->scale),
        "MakeNetwork"));
  }
  JsonLine digests;
  for (const uint64_t n : a.seeds) {
    const uint64_t seed = kBaseSeed + n;
    CallState st;
    if (def.batch) {
      BatchSpec b = *def.batch;
      b.threads = threads;
      std::vector<const core::AirSystem*> ptrs;
      for (const std::string& name : b.systems) {
        st.systems.push_back(Must(
            core::SystemRegistry::Global().Get(*g, name, RunParams()),
            "SystemRegistry::Get"));
        ptrs.push_back(st.systems.back().get());
      }
      st.w = Must(workload::GenerateWorkload(*g, RunWorkloadSpec(b, seed)),
                  "GenerateWorkload");
      st.batch = sim::Simulator(*g, RunSimOptions(b, seed, true)).Run(ptrs,
                                                                      st.w);
    } else {
      sim::Scenario s = *base;
      s.seed = seed;
      for (const std::string& name : s.EffectiveSystems()) {
        st.systems.push_back(Must(
            core::SystemRegistry::Global().Get(*g, name, s.params),
            "SystemRegistry::Get"));
      }
      sim::ScenarioRunner::RunOptions ro;
      ro.threads = threads;
      ro.deterministic = true;
      st.scenario_result =
          Must(sim::ScenarioRunner(ro).Run(s, *g), "ScenarioRunner");
    }
    const Outcome o = CheckCall(*g, st);
    if (o.mismatches != 0) Die("answer mismatch while recording");
    digests.Str(std::to_string(n), o.digest.Hex());
  }
  std::printf("%s\n", digests.Text().c_str());
  return 0;
}

bool ParseUint(const char* v, uint64_t* out) {
  if (*v == '\0' || *v == '-' || *v == '+') return false;
  char* end = nullptr;
  *out = std::strtoull(v, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      a.workload = v;
    } else if (const char* v = value("--seed=")) {
      if (!ParseUint(v, &a.seed)) Die("bad --seed");
    } else if (const char* v = value("--mode=")) {
      a.mode = v;
    } else if (const char* v = value("--report=")) {
      a.report = v;
    } else if (const char* v = value("--spec-out=")) {
      a.spec_out = v;
    } else if (const char* v = value("--trace-out=")) {
      a.trace_out = v;
    } else if (const char* v = value("--pin=")) {
      uint64_t pin = 0;
      if (!ParseUint(v, &pin) || pin > 1000000) Die("bad --pin");
      a.pin = static_cast<int>(pin);
    } else if (const char* v = value("--repeat=")) {
      if (!ParseUint(v, &a.repeat)) Die("bad --repeat");
    } else if (const char* v = value("--run-id=")) {
      a.run_id = v;
    } else if (const char* v = value("--seeds=")) {
      for (const char* p = v; *p != '\0';) {
        const char* comma = std::strchr(p, ',');
        const std::string item =
            comma != nullptr ? std::string(p, comma) : std::string(p);
        uint64_t seed = 0;
        if (!ParseUint(item.c_str(), &seed)) Die("bad --seeds");
        a.seeds.push_back(seed);
        p = comma != nullptr ? comma + 1 : p + item.size();
      }
    } else {
      Die("unknown argument \"" + arg + "\"");
    }
  }
  const WorkloadDef& def = FindWorkload(a.workload);
  if (a.mode == "call") return ModeCall(def, a);
  if (a.mode == "setup") return ModeSetup(def, a);
  if (a.mode == "trace") return ModeTrace(def, a);
  if (a.mode == "record") return ModeRecord(def, a);
  Die("unknown --mode \"" + a.mode + "\" (call | setup | trace | record)");
}
