#include "algo/spq.h"

#include <algorithm>
#include <limits>

#include "algo/dijkstra.h"
#include "common/thread_pool.h"

namespace airindex::algo {
namespace {

using graph::NodeId;
using graph::Point;

constexpr int kMaxDepth = 60;

struct RootCell {
  double min_x, min_y, size;
};

RootCell ComputeRootCell(const graph::Graph& g) {
  double min_x = std::numeric_limits<double>::max(), max_x = -min_x;
  double min_y = min_x, max_y = -min_x;
  for (const auto& p : g.coords()) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  // Slightly padded square so every point is strictly inside.
  const double size = std::max(max_x - min_x, max_y - min_y) * 1.0001 + 1.0;
  return {min_x, min_y, size};
}

/// The source-independent half of every tree: the root cell split until
/// each cell holds at most one node (or kMaxDepth is hit), with the nodes
/// laid out so that every cell is one contiguous range. Which cell a node
/// falls in does not depend on the source, so each source's coloured tree
/// is a top part of this one: it stops splitting where a cell's nodes
/// share one colour. The layout is built once by stable count-and-scatter
/// passes over two index buffers, so node ids stay increasing within every
/// cell and the first node of a range is its lowest id.
struct PointQuadtree {
  struct Cell {
    /// The cell's nodes: layout[lo, hi).
    uint32_t lo = 0, hi = 0;
    /// Index of the first of 4 consecutive children; 0 for a leaf.
    uint32_t child = 0;
  };
  std::vector<Cell> cells;  // cells[0] is the root
  /// Node ids, cell by cell; pos[v] is v's index in it.
  std::vector<NodeId> layout;
  std::vector<uint32_t> pos;

  PointQuadtree(const graph::Graph& g, const RootCell& root) {
    const auto n = static_cast<uint32_t>(g.num_nodes());
    layout.resize(n);
    for (NodeId v = 0; v < n; ++v) layout[v] = v;
    scatter_.resize(n);
    cells.emplace_back();
    Split(g.coords(), 0, 0, n, &layout, root.min_x, root.min_y, root.size,
          0);
    scatter_ = {};
    pos.resize(n);
    for (uint32_t i = 0; i < n; ++i) pos[layout[i]] = i;
  }

 private:
  /// Splits cell `k` over items [lo, hi) of `*items` (layout or scatter_):
  /// scatters them by quadrant into the same range of the other buffer,
  /// where the children read their sub-ranges. A leaf copies its range back
  /// into layout if it ended up in scatter_.
  void Split(const std::vector<Point>& pts, uint32_t k, uint32_t lo,
             uint32_t hi, std::vector<NodeId>* items, double x, double y,
             double size, int depth) {
    cells[k].lo = lo;
    cells[k].hi = hi;
    if (hi - lo < 2 || depth >= kMaxDepth) {
      if (items != &layout) {
        std::copy(items->begin() + lo, items->begin() + hi,
                  layout.begin() + lo);
      }
      return;
    }
    const double half = size / 2;
    auto quad = [&](NodeId v) {
      return (pts[v].x >= x + half ? 1 : 0) + (pts[v].y >= y + half ? 2 : 0);
    };
    uint32_t begin[5] = {lo, 0, 0, 0, 0};
    for (uint32_t i = lo; i < hi; ++i) ++begin[quad((*items)[i]) + 1];
    for (int q = 0; q < 4; ++q) begin[q + 1] += begin[q];
    uint32_t next[4] = {begin[0], begin[1], begin[2], begin[3]};
    std::vector<NodeId>* out = items == &layout ? &scatter_ : &layout;
    for (uint32_t i = lo; i < hi; ++i) {
      (*out)[next[quad((*items)[i])]++] = (*items)[i];
    }
    const auto first = static_cast<uint32_t>(cells.size());
    cells.resize(cells.size() + 4);
    cells[k].child = first;
    for (int q = 0; q < 4; ++q) {
      const double cx = x + (q & 1 ? half : 0);
      const double cy = y + (q & 2 ? half : 0);
      Split(pts, first + q, begin[q], begin[q + 1], out, cx, cy, half,
            depth + 1);
    }
  }

  std::vector<NodeId> scatter_;
};

/// One worker's scratch for building trees source after source; every
/// buffer keeps its storage across sources.
struct TreeBuilder {
  /// Marks the source's own slot in `colors`: it is no item of its tree.
  static constexpr int32_t kSource = -2;

  const graph::Graph& g;
  const PointQuadtree& pq;
  SearchWorkspace ws;
  /// Settle order of the current search, source first.
  std::vector<NodeId> order;
  /// First-hop arc ordinal at the source per layout slot (kNoColor:
  /// unreached).
  std::vector<int32_t> colors;
  /// Cells of the tree being built, copied out at exact size.
  std::vector<SpqIndex::QtNode> cells;

  TreeBuilder(const graph::Graph& graph, const PointQuadtree& points)
      : g(graph), pq(points) {}

  void Build(NodeId source, SpqIndex::Tree* out) {
    ColorFrom(source);
    cells.clear();
    Cell(0, 0);
    out->nodes.assign(cells.begin(), cells.end());
  }

  /// First-hop arc ordinal at `source` for every node, from one full
  /// Dijkstra: in settle order a node's tree parent is already coloured,
  /// so it inherits the parent's colour (direct children of source get
  /// their arc's ordinal).
  void ColorFrom(NodeId source) {
    DijkstraAll(g, source, ws, &order);
    colors.assign(g.num_nodes(), SpqIndex::QtNode::kNoColor);
    colors[pq.pos[source]] = kSource;
    const auto arcs = g.OutArcs(source);
    for (NodeId v : order) {
      const NodeId p = ws.ParentOf(v);
      if (p == kInvalidNode) continue;  // the source
      if (p == source) {
        // Ordinal of arc source->v (adjacency is sorted by head id).
        const auto it = std::partition_point(
            arcs.begin(), arcs.end(),
            [v](const graph::Graph::Arc& a) { return a.to < v; });
        colors[pq.pos[v]] = static_cast<int32_t>(it - arcs.begin());
      } else {
        colors[pq.pos[v]] = colors[pq.pos[p]];
      }
    }
  }

  /// Coloured cell over point-quadtree cell `k`, skipping the source. It
  /// is a leaf when empty, single-coloured, or (pathologically, e.g.
  /// duplicate coordinates in imported data) at kMaxDepth, where the first
  /// colour, the lowest node id's, wins — documented limitation,
  /// unreachable for generated networks. Otherwise it holds two nodes of
  /// different colours, so `k` has children to recurse into.
  int32_t Cell(uint32_t k, int depth) {
    const auto idx = static_cast<int32_t>(cells.size());
    cells.emplace_back();
    const PointQuadtree::Cell& cell = pq.cells[k];
    int32_t first = kSource;
    bool uniform = true;
    for (uint32_t i = cell.lo; i < cell.hi; ++i) {
      const int32_t c = colors[i];
      if (c == kSource) continue;
      if (first == kSource) {
        first = c;
      } else if (c != first) {
        uniform = false;
        break;
      }
    }
    if (first == kSource) return idx;  // empty: kNoColor leaf
    if (uniform || depth >= kMaxDepth) {
      cells[idx].color = first;
      return idx;
    }
    for (uint32_t q = 0; q < 4; ++q) {
      const int32_t child = Cell(cell.child + q, depth + 1);
      cells[idx].child[q] = child;
    }
    return idx;
  }
};

}  // namespace

Result<SpqIndex> SpqIndex::Build(const graph::Graph& g) {
  if (g.num_nodes() < 2) return Status::InvalidArgument("graph too small");
  SpqIndex idx;
  const RootCell root = ComputeRootCell(g);
  idx.min_x_ = root.min_x;
  idx.min_y_ = root.min_y;
  idx.size_ = root.size;
  idx.trees_.resize(g.num_nodes());
  const PointQuadtree points(g, root);
  // One builder per worker, kept across the sources it claims; a tree
  // depends only on its source, so the result is independent of which
  // worker built it.
  std::vector<TreeBuilder> builders(ResolveWorkers(g.num_nodes(), 0),
                                    TreeBuilder(g, points));
  ParallelForWorker(g.num_nodes(), [&](unsigned worker, size_t v) {
    builders[worker].Build(static_cast<NodeId>(v), &idx.trees_[v]);
  });
  return idx;
}

SpqIndex SpqIndex::FromParts(double min_x, double min_y, double size,
                             std::vector<Tree> trees) {
  SpqIndex idx;
  idx.min_x_ = min_x;
  idx.min_y_ = min_y;
  idx.size_ = size;
  idx.trees_ = std::move(trees);
  return idx;
}

int32_t SpqIndex::ColorOf(graph::NodeId v, graph::Point p) const {
  return ColorIn(trees_[v], p);
}

int32_t SpqIndex::ColorIn(const Tree& tree, graph::Point p) const {
  double x = min_x_, y = min_y_, size = size_;
  int32_t cur = 0;
  while (!tree.nodes[cur].is_leaf()) {
    const double half = size / 2;
    const int q = (p.x >= x + half ? 1 : 0) + (p.y >= y + half ? 2 : 0);
    x += (q & 1) ? half : 0;
    y += (q & 2) ? half : 0;
    size = half;
    cur = tree.nodes[cur].child[q];
  }
  return tree.nodes[cur].color;
}

graph::Path SpqIndex::Query(const graph::Graph& g, graph::NodeId s,
                            graph::NodeId t) const {
  graph::Path path;
  path.nodes.push_back(s);
  auto tree_of = [this](NodeId v) { return &trees_[v]; };
  const graph::Dist dist =
      Walk(g, s, t, tree_of, [&](NodeId v) { path.nodes.push_back(v); });
  if (dist == graph::kInfDist) return graph::Path{};
  path.dist = dist;
  return path;
}

size_t SpqIndex::TreeBytes(const Tree& tree) {
  size_t bytes = 0;
  for (const auto& node : tree.nodes) {
    bytes += node.is_leaf() ? 3 : 1;  // tag + u16 colour for leaves
  }
  return bytes;
}

size_t SpqIndex::IndexBytes() const {
  size_t bytes = 0;
  for (const auto& tree : trees_) bytes += TreeBytes(tree);
  return bytes;
}

size_t SpqIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& tree : trees_) {
    bytes += tree.nodes.size() * sizeof(QtNode);
  }
  return bytes;
}

}  // namespace airindex::algo
