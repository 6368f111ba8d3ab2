#include "algo/landmark.h"

#include <algorithm>

#include "algo/astar.h"
#include "algo/dijkstra.h"
#include "common/rng.h"

namespace airindex::algo {

Result<LandmarkIndex> LandmarkIndex::Build(const graph::Graph& g,
                                           uint32_t num_landmarks,
                                           uint64_t seed) {
  const size_t n = g.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (num_landmarks == 0 || num_landmarks > n) {
    return Status::InvalidArgument("num_landmarks out of range");
  }

  LandmarkIndex idx;
  graph::Graph rev = g.Reversed();
  Rng rng(seed);

  // Farthest-point selection: the first landmark is the node farthest from a
  // random start; each next landmark maximizes the minimum distance to the
  // already-chosen set. This is the selection heuristic of Goldberg &
  // Harrelson that the paper cites. One workspace serves every search, and
  // a selection round reads the search from `current` still held in it.
  SearchWorkspace ws;
  auto distances = [&ws, n] {
    std::vector<Dist> dist(n);
    for (NodeId v = 0; v < n; ++v) dist[v] = ws.DistTo(v);
    return dist;
  };
  idx.from_.resize(num_landmarks);
  idx.to_.resize(num_landmarks);
  NodeId current = static_cast<NodeId>(rng.NextBounded(n));
  std::vector<Dist> min_dist(n, kInfDist);
  DijkstraAll(g, current, ws);
  for (uint32_t l = 0; l < num_landmarks; ++l) {
    NodeId farthest = current;
    Dist best = 0;
    for (NodeId v = 0; v < n; ++v) {
      const Dist d = ws.DistTo(v);
      if (d == kInfDist) continue;
      min_dist[v] = std::min(min_dist[v], d);
      if (min_dist[v] >= best &&
          std::find(idx.landmarks_.begin(), idx.landmarks_.end(), v) ==
              idx.landmarks_.end()) {
        best = min_dist[v];
        farthest = v;
      }
    }
    if (l == 0) {
      // Restart the min-distance bookkeeping from the true first landmark.
      min_dist.assign(n, kInfDist);
    }
    idx.landmarks_.push_back(farthest);
    current = farthest;
    // The new landmark's distances are its from_ row; fold them in for the
    // next selection round.
    DijkstraAll(g, farthest, ws);
    idx.from_[l] = distances();
    for (NodeId v = 0; v < n; ++v) {
      min_dist[v] = std::min(min_dist[v], idx.from_[l][v]);
    }
  }

  for (uint32_t l = 0; l < num_landmarks; ++l) {
    DijkstraAll(rev, idx.landmarks_[l], ws);
    idx.to_[l] = distances();
  }
  return idx;
}

LandmarkIndex LandmarkIndex::FromVectors(
    std::vector<graph::NodeId> landmarks,
    std::vector<std::vector<graph::Dist>> from,
    std::vector<std::vector<graph::Dist>> to) {
  LandmarkIndex idx;
  idx.landmarks_ = std::move(landmarks);
  idx.from_ = std::move(from);
  idx.to_ = std::move(to);
  return idx;
}

graph::Dist LandmarkIndex::LowerBound(graph::NodeId v,
                                      graph::NodeId t) const {
  Dist best = 0;
  for (uint32_t l = 0; l < num_landmarks(); ++l) {
    const Dist vt_to = to_[l][v];    // d(v, L)
    const Dist tt_to = to_[l][t];    // d(t, L)
    const Dist vf = from_[l][v];     // d(L, v)
    const Dist tf = from_[l][t];     // d(L, t)
    if (vt_to != kInfDist && tt_to != kInfDist && vt_to > tt_to) {
      best = std::max(best, vt_to - tt_to);
    }
    if (vf != kInfDist && tf != kInfDist && tf > vf) {
      best = std::max(best, tf - vf);
    }
  }
  return best;
}

graph::Path LandmarkIndex::Query(const graph::Graph& g, graph::NodeId s,
                                 graph::NodeId t, size_t* settled_out) const {
  return AStarPath(
      g, s, t, [this, t](NodeId v) { return LowerBound(v, t); }, settled_out);
}

size_t LandmarkIndex::MemoryBytes() const {
  size_t bytes = landmarks_.size() * sizeof(graph::NodeId);
  for (const auto& v : from_) bytes += v.size() * sizeof(graph::Dist);
  for (const auto& v : to_) bytes += v.size() * sizeof(graph::Dist);
  return bytes;
}

}  // namespace airindex::algo
