#include "core/knn_on_air.h"

#include <algorithm>
#include <optional>

#include "algo/dijkstra.h"
#include "core/client_run.h"
#include "core/partial_graph.h"

namespace airindex::core {

KnnResult RunKnnQuery(const EbSystem& system,
                      const broadcast::BroadcastChannel& channel,
                      const KnnQuery& query,
                      const std::vector<graph::NodeId>& poi_nodes,
                      const ClientOptions& options) {
  KnnResult result;
  if (query.k == 0) {
    result.metrics.ok = true;
    return result;
  }
  ClientRun run(channel, TuneInPosition(system.cycle(), query.tune_phase),
                system.index().num_nodes, options, /*scratch=*/nullptr);
  const std::optional<EbTuneIn> tune_in =
      TuneInEbIndex(run, query.source_coord, options.max_repair_cycles);
  if (!tune_in.has_value()) return result;
  const EbIndex& index = tune_in->index;
  const graph::RegionId rs = tune_in->source_region;

  // Regions by ascending minimum network distance from Rs (Rs itself
  // first, at distance 0).
  device::Stopwatch sw_setup;
  std::vector<std::pair<graph::Dist, graph::RegionId>> frontier;
  for (graph::RegionId r = 0; r < index.num_regions; ++r) {
    const graph::Dist d = r == rs ? 0 : index.MinDist(rs, r);
    if (d != graph::kInfDist) frontier.emplace_back(d, r);
  }
  std::sort(frontier.begin(), frontier.end());

  std::vector<graph::NodeId> pois = poi_nodes;
  std::sort(pois.begin(), pois.end());
  pois.erase(std::unique(pois.begin(), pois.end()), pois.end());
  run.cpu_ms += sw_setup.ElapsedMs();

  // Every segment of a region is ingested, and the region counted, even
  // when its cross segment is invalid.
  auto ingest_region = [&](broadcast::ReceivedSegment& cross,
                           broadcast::ReceivedSegment* local) {
    device::Stopwatch sw;
    run.IngestRegion(cross, system.encoding());
    run.memory.Release(cross.payload.size());
    if (local != nullptr) {
      run.IngestRegion(*local, system.encoding());
      run.memory.Release(local->payload.size());
    }
    ++run.metrics.regions_received;
    run.cpu_ms += sw.ElapsedMs();
  };
  RegionFetch fetch(run, ingest_region);

  // Incremental expansion: receive the next-closest region, re-evaluate
  // the k-th best POI distance over the received union, stop once the next
  // region cannot possibly improve it.
  QueryScratch& s = run.scratch();
  const PartialGraph& pg = s.partial_graph;
  std::vector<std::pair<graph::Dist, graph::NodeId>> found;
  auto kth_best = [&]() -> graph::Dist {
    device::Stopwatch sw;
    found.clear();
    // A source past every received id has nothing to search from.
    if (query.source < pg.num_nodes()) {
      algo::DijkstraSearch(pg, query.source, graph::kInvalidNode,
                           KnownEdgeFilter{&pg}, s.search);
      for (graph::NodeId p : pois) {
        const graph::Dist d = s.search.DistTo(p);
        if (d != graph::kInfDist) found.emplace_back(d, p);
      }
    }
    std::sort(found.begin(), found.end());
    if (found.size() > query.k) found.resize(query.k);
    result.neighbors.clear();
    for (auto [d, v] : found) result.neighbors.emplace_back(v, d);
    run.cpu_ms += sw.ElapsedMs();
    return found.size() == query.k ? found.back().first : graph::kInfDist;
  };

  graph::Dist bound = graph::kInfDist;
  for (size_t i = 0; i < frontier.size(); ++i) {
    if (frontier[i].first > bound) break;  // no region can improve the kNN
    const EbIndex::RegionDir& d = index.dir[frontier[i].second];
    fetch.Fetch(d.cross_start, d.local_packets > 0
                                   ? std::optional<uint32_t>(d.local_start)
                                   : std::nullopt);
    fetch.Flush(options.max_repair_cycles);
    bound = kth_best();
  }

  result.metrics = run.Finish(graph::kInfDist, /*ok=*/true);
  return result;
}

}  // namespace airindex::core
