#ifndef AIRINDEX_ALGO_SPQ_H_
#define AIRINDEX_ALGO_SPQ_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace airindex::algo {

/// Shortest-path quadtree (SPQ, Samet et al.; §2.1): every node v stores a
/// coloured region quadtree over the Euclidean coordinates of all other
/// nodes, where the colour of u is the incident arc of v that begins the
/// shortest path v -> u. A query repeatedly looks up the target's colour and
/// follows one arc, so each step is a point location.
///
/// The per-node quadtrees are collectively several times larger than the
/// network (Table 1), which is why the paper rules SPQ out on air.
class SpqIndex {
 public:
  /// One quadtree cell. Leaves carry the colour (arc ordinal at the owning
  /// node, or kNoColor for empty cells); internal cells carry 4 child
  /// indexes into the same vector.
  struct QtNode {
    static constexpr int32_t kLeaf = -1;
    static constexpr int32_t kNoColor = -1;
    int32_t child[4] = {kLeaf, kLeaf, kLeaf, kLeaf};
    int32_t color = kNoColor;
    bool is_leaf() const { return child[0] == kLeaf; }
  };

  /// Per-node quadtree (nodes[0] is the root).
  struct Tree {
    std::vector<QtNode> nodes;
  };

  /// Builds the full index: one all-targets Dijkstra plus one quadtree per
  /// node (parallelized). Memory grows with num_nodes * quadtree size.
  static Result<SpqIndex> Build(const graph::Graph& g);

  /// First-hop arc ordinal at `v` for a target located at `p`, or
  /// QtNode::kNoColor if the cell is empty (never happens for real targets).
  int32_t ColorOf(graph::NodeId v, graph::Point p) const;

  /// First-hop colour in `tree` (any node's quadtree over this index's
  /// root cell) for a target located at `p`.
  int32_t ColorIn(const Tree& tree, graph::Point p) const;

  /// Follows first-hop colours from s to t; exact shortest path.
  graph::Path Query(const graph::Graph& g, graph::NodeId s,
                    graph::NodeId t) const;

  /// Query's walk over trees fetched one at a time: `tree_of(v)` returns
  /// node v's tree as a `const Tree*` (read before the next call) or null
  /// when it is unknown, which fails the walk. Returns the path length,
  /// or kInfDist when the walk fails. Lets a client that holds the trees
  /// encoded decode only the ones the walk visits.
  template <typename TreeOf>
  graph::Dist QueryDistance(const graph::Graph& g, graph::NodeId s,
                            graph::NodeId t, TreeOf&& tree_of) const {
    return Walk(g, s, t, tree_of, [](graph::NodeId) {});
  }

  /// Serialized size: per quadtree cell 1 tag byte, plus 2 colour bytes for
  /// leaves. Drives the SPQ row of Table 1.
  size_t IndexBytes() const;

  size_t MemoryBytes() const;

  const Tree& TreeOf(graph::NodeId v) const { return trees_[v]; }

  /// Root cell bounds (serialized in the broadcast header).
  double root_min_x() const { return min_x_; }
  double root_min_y() const { return min_y_; }
  double root_size() const { return size_; }

  /// Reassembles an index from deserialized trees (client side of the
  /// broadcast adaptation).
  static SpqIndex FromParts(double min_x, double min_y, double size,
                            std::vector<Tree> trees);

 private:
  SpqIndex() = default;

  /// Serialized bytes of a single tree.
  static size_t TreeBytes(const Tree& tree);

  /// The walk behind Query and QueryDistance; `on_hop(v)` sees every node
  /// after s that the walk steps onto.
  template <typename TreeOf, typename OnHop>
  graph::Dist Walk(const graph::Graph& g, graph::NodeId s, graph::NodeId t,
                   TreeOf& tree_of, OnHop&& on_hop) const {
    graph::Dist total = 0;
    graph::NodeId cur = s;
    const graph::Point target = g.Coord(t);
    for (size_t step = 0; cur != t; ++step) {
      if (step > g.num_nodes()) return graph::kInfDist;  // corrupt index
      const Tree* tree = tree_of(cur);
      if (tree == nullptr) return graph::kInfDist;
      const int32_t color = ColorIn(*tree, target);
      if (color < 0 || static_cast<size_t>(color) >= g.OutDegree(cur)) {
        return graph::kInfDist;  // unreachable / corrupt
      }
      const auto& arc = g.OutArcs(cur)[color];
      total += arc.weight;
      cur = arc.to;
      on_hop(cur);
    }
    return total;
  }

  double min_x_ = 0, min_y_ = 0, size_ = 1;  // root cell (square)
  std::vector<Tree> trees_;
};

}  // namespace airindex::algo

#endif  // AIRINDEX_ALGO_SPQ_H_
