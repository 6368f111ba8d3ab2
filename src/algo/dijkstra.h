#ifndef AIRINDEX_ALGO_DIJKSTRA_H_
#define AIRINDEX_ALGO_DIJKSTRA_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "algo/search_workspace.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace airindex::algo {

using graph::Dist;
using graph::Graph;
using graph::kInfDist;
using graph::kInvalidNode;
using graph::NodeId;
using graph::Path;

/// Result of a Dijkstra run: per-node distances, the shortest-path tree
/// (parent pointers), and the number of settled nodes (the paper's proxy for
/// client CPU work).
struct SearchTree {
  std::vector<Dist> dist;
  std::vector<NodeId> parent;
  size_t settled = 0;
};

/// Accept-everything edge filter.
struct AllEdges {
  template <typename Arc>
  bool operator()(NodeId, const Arc&) const {
    return true;
  }
};

namespace detail {

/// The loop behind DijkstraSearch and DijkstraAll: `on_settle(v)` sees
/// every settled node in settle order. A no-op callback compiles away, so
/// the plain search pays nothing for the hook.
template <typename G, typename EdgeFilter, typename OnSettle>
void DijkstraLoop(const G& g, NodeId source, NodeId target,
                  EdgeFilter edge_filter, SearchWorkspace& ws,
                  OnSettle&& on_settle) {
  ws.BeginSearch(g.num_nodes());
  auto& heap = ws.heap();
  ws.TryImprove(source, 0, kInvalidNode);
  heap.push({0, source});

  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    if (d != ws.TentativeDist(v)) continue;  // stale entry
    ws.CountSettled();
    on_settle(v);
    if (v == target) break;
    for (const auto& arc : g.OutArcs(v)) {
      if (!edge_filter(v, arc)) continue;
      Dist nd = d + arc.weight;
      if (ws.TryImprove(arc.to, nd, v)) heap.push({nd, arc.to});
    }
  }
}

}  // namespace detail

/// Generic Dijkstra over any graph type exposing
///   size_t num_nodes() const
///   <range of {to, weight}> OutArcs(NodeId) const
/// (satisfied by graph::Graph and by the client-side PartialGraph).
///
/// Runs inside the caller-provided workspace (O(1) per-search reset, no
/// allocation in steady state); read results through ws.DistTo /
/// ws.ParentOf / ws.settled(), valid until the workspace's next search.
///
/// `target`: stop as soon as this node is settled (kInvalidNode = settle
/// everything). `edge_filter(from, arc)` returning false skips an arc; it is
/// how ArcFlag restricts the search and how clients ignore adjacency entries
/// pointing at nodes they never received.
template <typename G, typename EdgeFilter>
void DijkstraSearch(const G& g, NodeId source, NodeId target,
                    EdgeFilter edge_filter, SearchWorkspace& ws) {
  detail::DijkstraLoop(g, source, target, edge_filter, ws, [](NodeId) {});
}

/// Single-source Dijkstra that stops once every node in `targets` is
/// settled, run inside the caller's workspace. Used by the border-pair
/// pre-computation, where only border-to-border distances matter.
///
/// When `settle_order` is non-null it is cleared and receives every settled
/// node in settle order. A node's tree parent always precedes it there, so
/// one pass over the order visits the shortest-path tree top-down and a
/// reverse pass visits it bottom-up. Every target with a finite distance
/// is settled (the search only stops early once all targets are).
template <typename G>
void DijkstraToTargets(const G& g, NodeId source,
                       const std::vector<NodeId>& targets,
                       SearchWorkspace& ws,
                       std::vector<NodeId>* settle_order = nullptr) {
  ws.BeginSearch(g.num_nodes());
  if (settle_order != nullptr) settle_order->clear();
  size_t remaining = 0;
  for (NodeId t : targets) {
    if (ws.MarkPending(t)) ++remaining;
  }

  auto& heap = ws.heap();
  ws.TryImprove(source, 0, kInvalidNode);
  heap.push({0, source});
  while (!heap.empty() && remaining > 0) {
    auto [d, v] = heap.top();
    heap.pop();
    if (d != ws.TentativeDist(v)) continue;
    ws.CountSettled();
    if (settle_order != nullptr) settle_order->push_back(v);
    if (ws.IsPending(v)) {
      ws.ClearPending(v);
      --remaining;
    }
    for (const auto& arc : g.OutArcs(v)) {
      Dist nd = d + arc.weight;
      if (ws.TryImprove(arc.to, nd, v)) heap.push({nd, arc.to});
    }
  }
}

/// Full single-source Dijkstra (settles every reachable node) in the
/// caller's workspace. When `settle_order` is non-null it is cleared and
/// receives every settled node in settle order, source first; as in
/// DijkstraToTargets, a node's tree parent always precedes it, even across
/// zero-weight arcs where parent and child tie on distance.
template <typename G>
void DijkstraAll(const G& g, NodeId source, SearchWorkspace& ws,
                 std::vector<NodeId>* settle_order = nullptr) {
  if (settle_order == nullptr) {
    DijkstraSearch(g, source, kInvalidNode, AllEdges{}, ws);
    return;
  }
  settle_order->clear();
  detail::DijkstraLoop(
      g, source, kInvalidNode, AllEdges{}, ws,
      [settle_order](NodeId v) { settle_order->push_back(v); });
}

/// Copies the workspace's current search into a standalone SearchTree of
/// `n` nodes (unreached entries become kInfDist / kInvalidNode). This is
/// how the legacy value-returning API is produced from a workspace run.
SearchTree MaterializeSearchTree(const SearchWorkspace& ws, size_t n);

/// Legacy value-returning Dijkstra: runs in a throwaway workspace and
/// materializes the tree. Bit-identical to the historical implementation;
/// hot paths should prefer the workspace overload above.
template <typename G, typename EdgeFilter>
SearchTree DijkstraSearch(const G& g, NodeId source, NodeId target,
                          EdgeFilter edge_filter) {
  SearchWorkspace ws;
  DijkstraSearch(g, source, target, edge_filter, ws);
  return MaterializeSearchTree(ws, g.num_nodes());
}

/// Full single-source Dijkstra (settles every reachable node).
template <typename G>
SearchTree DijkstraAll(const G& g, NodeId source) {
  return DijkstraSearch(g, source, kInvalidNode, AllEdges{});
}

/// Legacy value-returning variant of DijkstraToTargets.
template <typename G>
SearchTree DijkstraToTargets(const G& g, NodeId source,
                             const std::vector<NodeId>& targets) {
  SearchWorkspace ws;
  DijkstraToTargets(g, source, targets, ws);
  return MaterializeSearchTree(ws, g.num_nodes());
}

/// Walks the parent chain of `tree` (a search from `source`) backwards from
/// `target`. Returns an unreachable Path if target was not reached.
Path ExtractPath(const SearchTree& tree, NodeId source, NodeId target);

/// Same, reading straight out of a workspace search.
Path ExtractPath(const SearchWorkspace& ws, NodeId source, NodeId target);

/// Point-to-point shortest path on a full graph (the paper's baseline query
/// and the ground truth used by every test).
template <typename G>
Path DijkstraPath(const G& g, NodeId source, NodeId target) {
  SearchWorkspace ws;
  DijkstraSearch(g, source, target, AllEdges{}, ws);
  return ExtractPath(ws, source, target);
}

/// Sums edge weights along `nodes`, verifying each hop exists in `g`.
/// Returns kInfDist if some hop is missing — used by tests and by clients to
/// sanity-check reconstructed paths.
Dist PathLength(const Graph& g, const std::vector<NodeId>& nodes);

}  // namespace airindex::algo

#endif  // AIRINDEX_ALGO_DIJKSTRA_H_
