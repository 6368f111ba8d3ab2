#include "core/range_on_air.h"

#include <algorithm>
#include <optional>

#include "algo/dijkstra.h"
#include "core/client_run.h"
#include "core/partial_graph.h"

namespace airindex::core {

RangeResult RunRangeQuery(const EbSystem& system,
                          const broadcast::BroadcastChannel& channel,
                          const RangeQuery& query,
                          const ClientOptions& options) {
  RangeResult result;
  ClientRun run(channel, TuneInPosition(system.cycle(), query.tune_phase),
                system.index().num_nodes, options, /*scratch=*/nullptr);
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
  SortInBroadcastOrder(run, index, &needed);

  // Cross and local segments are fetched as regions of their own, so a
  // complete cross segment is ingested even when the local one is damaged.
  auto ingest = [&](broadcast::ReceivedSegment& seg,
                    broadcast::ReceivedSegment* /*local*/) {
    device::Stopwatch sw;
    if (run.IngestRegion(seg, system.encoding())) {
      ++run.metrics.regions_received;
    }
    run.memory.Release(seg.payload.size());
    run.cpu_ms += sw.ElapsedMs();
  };
  RegionFetch fetch(run, ingest);
  for (graph::RegionId r : needed) {
    const EbIndex::RegionDir& d = index.dir[r];
    fetch.Fetch(d.cross_start, std::nullopt);
    if (d.local_packets > 0) fetch.Fetch(d.local_start, std::nullopt);
  }
  fetch.Flush(options.max_repair_cycles);

  // Dijkstra over the received union; nodes beyond the radius are filtered
  // out afterwards (the search could early-terminate at the radius, but
  // the received subgraph is already radius-pruned by region).
  device::Stopwatch sw_search;
  QueryScratch& s = run.scratch();
  const PartialGraph& pg = s.partial_graph;
  // A source past every received id has nothing to search from.
  if (query.source < pg.num_nodes()) {
    algo::DijkstraSearch(pg, query.source, graph::kInvalidNode,
                         KnownEdgeFilter{&pg}, s.search);
    for (graph::NodeId v = 0; v < pg.num_nodes(); ++v) {
      const graph::Dist d = s.search.DistTo(v);
      if (d <= query.radius) result.nodes.emplace_back(v, d);
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
