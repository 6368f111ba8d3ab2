#include "algo/arc_flags.h"

#include "algo/dijkstra.h"
#include "common/thread_pool.h"

namespace airindex::algo {

namespace {

/// Maps (from, to) pairs to CSR arc indexes via binary search in the sorted
/// adjacency span.
size_t ArcIndexOf(const graph::Graph& g,
                  const std::vector<uint32_t>& first_arc, graph::NodeId from,
                  graph::NodeId to) {
  auto arcs = g.OutArcs(from);
  size_t lo = 0, hi = arcs.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (arcs[mid].to < to) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return first_arc[from] + lo;
}

/// Prefix of out-degree counts: first_arc[v] = index of v's first arc in the
/// CSR array.
std::vector<uint32_t> FirstArcTable(const graph::Graph& g) {
  std::vector<uint32_t> first(g.num_nodes() + 1, 0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    first[v + 1] = first[v] + static_cast<uint32_t>(g.OutDegree(v));
  }
  return first;
}

}  // namespace

Result<ArcFlagIndex> ArcFlagIndex::Build(
    const graph::Graph& g, const std::vector<graph::RegionId>& node_region,
    uint32_t num_regions) {
  if (node_region.size() != g.num_nodes()) {
    return Status::InvalidArgument("node_region size mismatch");
  }
  if (num_regions == 0) {
    return Status::InvalidArgument("num_regions must be positive");
  }
  for (graph::RegionId r : node_region) {
    if (r >= num_regions) {
      return Status::InvalidArgument("region id out of range");
    }
  }

  ArcFlagIndex idx;
  idx.num_regions_ = num_regions;
  idx.words_per_arc_ = (num_regions + 63) / 64;
  idx.node_region_ = node_region;
  idx.flags_.assign(g.num_arcs() * idx.words_per_arc_, 0);

  const std::vector<uint32_t> first_arc = FirstArcTable(g);

  // Intra-region flags: an arc whose head lies in R may always be needed to
  // reach R's interior.
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (size_t i = 0; i < g.OutDegree(v); ++i) {
      const auto& arc = g.OutArcs(v)[i];
      idx.SetArcFlag(first_arc[v] + i, node_region[arc.to]);
    }
  }

  // Border nodes: head of some arc that crosses regions.
  std::vector<graph::NodeId> border;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    bool is_border = false;
    for (const auto& arc : g.OutArcs(v)) {
      if (node_region[arc.to] != node_region[v]) {
        is_border = true;
        break;
      }
    }
    if (is_border) border.push_back(v);
  }

  graph::Graph rev = g.Reversed();

  // One backward Dijkstra per border node. Each worker keeps one workspace
  // and its own flag words across the border nodes it claims; the words
  // are OR-merged once at the end (flag OR is commutative, so the result
  // is independent of which worker ran which border node).
  struct WorkerState {
    SearchWorkspace ws;
    std::vector<uint64_t> flags;
  };
  std::vector<WorkerState> workers(ResolveWorkers(border.size(), 0));
  ParallelForWorker(border.size(), [&](unsigned worker, size_t bi) {
    WorkerState& st = workers[worker];
    if (st.flags.empty()) st.flags.assign(idx.flags_.size(), 0);
    const graph::NodeId b = border[bi];
    const graph::RegionId region = node_region[b];
    const uint64_t bit = uint64_t{1} << (region % 64);
    DijkstraAll(rev, b, st.ws);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const graph::NodeId p = st.ws.ParentOf(v);
      if (p == graph::kInvalidNode) continue;
      // Reverse-tree arc p->v corresponds to forward arc v->p on a shortest
      // v -> b path.
      st.flags[ArcIndexOf(g, first_arc, v, p) * idx.words_per_arc_ +
               region / 64] |= bit;
    }
  });
  for (const WorkerState& st : workers) {
    for (size_t i = 0; i < st.flags.size(); ++i) idx.flags_[i] |= st.flags[i];
  }

  return idx;
}

graph::Path ArcFlagIndex::Query(const graph::Graph& g, graph::NodeId s,
                                graph::NodeId t, size_t* settled_out) const {
  const graph::RegionId target_region = node_region_[t];
  SearchTree tree = DijkstraSearch(
      g, s, t, [&](graph::NodeId, const graph::Graph::Arc& arc) {
        return ArcAllowed(g.ArcIndex(arc), target_region);
      });
  if (settled_out != nullptr) *settled_out = tree.settled;
  return ExtractPath(tree, s, t);
}

}  // namespace airindex::algo
