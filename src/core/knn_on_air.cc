#include "core/knn_on_air.h"

#include <algorithm>
#include <deque>
#include <optional>

#include "algo/dijkstra.h"
#include "core/client_run.h"
#include "core/partial_graph.h"
#include "core/repair.h"

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
                options, /*scratch=*/nullptr);
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

  std::vector<uint8_t> is_poi;
  for (graph::NodeId p : poi_nodes) {
    if (p >= is_poi.size()) is_poi.resize(p + 1, 0);
    is_poi[p] = 1;
  }
  run.cpu_ms += sw_setup.ElapsedMs();

  const PartialGraph& pg = run.scratch().partial_graph;
  auto receive_region = [&](graph::RegionId r) {
    const EbIndex::RegionDir& d = index.dir[r];
    std::deque<broadcast::ReceivedSegment> segs;
    std::vector<PendingRepair> pending;
    for (int part = 0; part < (d.local_packets > 0 ? 2 : 1); ++part) {
      const uint32_t start = part == 0 ? d.cross_start : d.local_start;
      segs.push_back(ReceiveSegmentAt(run.session, start));
      run.memory.Charge(segs.back().payload.size());
      if (!segs.back().complete) pending.push_back({start, &segs.back()});
    }
    if (!pending.empty()) {
      RepairAllSegments(run.session, pending, options.max_repair_cycles);
    }
    device::Stopwatch sw;
    for (const auto& seg : segs) {
      run.IngestRegion(seg, system.encoding());
      run.memory.Release(seg.payload.size());
    }
    ++run.metrics.regions_received;
    run.cpu_ms += sw.ElapsedMs();
  };

  // Incremental expansion: receive the next-closest region, re-evaluate
  // the k-th best POI distance over the received union, stop once the next
  // region cannot possibly improve it.
  auto kth_best = [&]() -> graph::Dist {
    device::Stopwatch sw;
    algo::SearchTree tree = algo::DijkstraSearch(
        pg, query.source, graph::kInvalidNode, KnownEdgeFilter{&pg});
    std::vector<std::pair<graph::Dist, graph::NodeId>> found;
    for (graph::NodeId v = 0;
         v < std::min<size_t>(tree.dist.size(), is_poi.size()); ++v) {
      if (is_poi[v] && tree.dist[v] != graph::kInfDist) {
        found.emplace_back(tree.dist[v], v);
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
    receive_region(frontier[i].second);
    bound = kth_best();
  }

  result.metrics = run.Finish(graph::kInfDist, /*ok=*/true);
  return result;
}

}  // namespace airindex::core
