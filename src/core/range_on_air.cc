#include "core/range_on_air.h"

#include <algorithm>
#include <deque>
#include <optional>

#include "algo/dijkstra.h"
#include "core/client_run.h"
#include "core/partial_graph.h"
#include "core/repair.h"

namespace airindex::core {

RangeResult RunRangeQuery(const EbSystem& system,
                          const broadcast::BroadcastChannel& channel,
                          const RangeQuery& query,
                          const ClientOptions& options) {
  RangeResult result;
  const broadcast::BroadcastCycle& cycle = system.cycle();
  ClientRun run(channel, TuneInPosition(cycle, query.tune_phase), options,
                /*scratch=*/nullptr);
  const uint32_t total = cycle.total_packets();
  const std::optional<EbTuneIn> tune_in =
      TuneInEbIndex(run, query.source_coord, options.max_repair_cycles);
  if (!tune_in.has_value()) return result;
  const EbIndex& index = tune_in->index;
  const graph::RegionId rs = tune_in->source_region;

  // Pruning: regions whose minimum border distance from Rs exceeds the
  // radius can neither contain results nor carry a qualifying path.
  device::Stopwatch sw_prune;
  std::vector<graph::RegionId> needed;
  for (graph::RegionId r = 0; r < index.num_regions; ++r) {
    if (r == rs || index.MinDist(rs, r) <= query.radius) needed.push_back(r);
  }
  run.cpu_ms += sw_prune.ElapsedMs();

  // Receive the needed regions (cross + local: results may be any node)
  // in broadcast order; batch-repair losses.
  std::sort(needed.begin(), needed.end(),
            [&](graph::RegionId a, graph::RegionId b) {
              const uint32_t cur = run.session.cycle_pos();
              auto ahead = [&](graph::RegionId r) {
                const uint32_t s = index.dir[r].cross_start;
                return s >= cur ? s - cur : s + total - cur;
              };
              return ahead(a) < ahead(b);
            });

  std::deque<broadcast::ReceivedSegment> stash;
  std::vector<PendingRepair> pending;
  auto ingest = [&](const broadcast::ReceivedSegment& seg) {
    device::Stopwatch sw;
    if (run.IngestRegion(seg, system.encoding())) {
      ++run.metrics.regions_received;
    }
    run.memory.Release(seg.payload.size());
    run.cpu_ms += sw.ElapsedMs();
  };

  for (graph::RegionId r : needed) {
    const EbIndex::RegionDir& d = index.dir[r];
    for (int part = 0; part < (d.local_packets > 0 ? 2 : 1); ++part) {
      const uint32_t start = part == 0 ? d.cross_start : d.local_start;
      broadcast::ReceivedSegment seg = ReceiveSegmentAt(run.session, start);
      run.memory.Charge(seg.payload.size());
      if (seg.complete) {
        ingest(seg);
      } else {
        stash.push_back(std::move(seg));
        pending.push_back({start, &stash.back()});
      }
    }
  }
  if (!pending.empty()) {
    RepairAllSegments(run.session, pending, options.max_repair_cycles);
    for (const auto& seg : stash) ingest(seg);
  }

  // Dijkstra over the received union; nodes beyond the radius are filtered
  // out afterwards (the search could early-terminate at the radius, but
  // the received subgraph is already radius-pruned by region).
  device::Stopwatch sw_search;
  const PartialGraph& pg = run.scratch().partial_graph;
  algo::SearchTree full = algo::DijkstraSearch(
      pg, query.source, graph::kInvalidNode, KnownEdgeFilter{&pg});
  for (graph::NodeId v = 0; v < full.dist.size(); ++v) {
    if (full.dist[v] <= query.radius) {
      result.nodes.emplace_back(v, full.dist[v]);
    }
  }
  std::sort(result.nodes.begin(), result.nodes.end(),
            [](const auto& a, const auto& b) {
              return a.second < b.second ||
                     (a.second == b.second && a.first < b.first);
            });
  run.cpu_ms += sw_search.ElapsedMs();

  result.metrics = run.Finish(graph::kInfDist, /*ok=*/true);
  return result;
}

}  // namespace airindex::core
