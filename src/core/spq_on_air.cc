#include <algorithm>
#include <bit>

#include "algo/spq.h"
#include "common/byte_io.h"
#include "core/full_cycle_system.h"
#include "core/spq_wire.h"

namespace airindex::core {
namespace {

constexpr uint32_t kHeaderSegment = 0;
constexpr uint32_t kTreesPerChunk = 64;
constexpr uint16_t kNoColorU16 = 0xFFFF;

void EncodeCell(const algo::SpqIndex::Tree& tree, int32_t cell,
                std::vector<uint8_t>* out) {
  const auto& node = tree.nodes[cell];
  if (node.is_leaf()) {
    out->push_back(0);
    const uint16_t color = node.color == algo::SpqIndex::QtNode::kNoColor
                               ? kNoColorU16
                               : static_cast<uint16_t>(node.color);
    PutU16(out, color);
    return;
  }
  out->push_back(1);
  for (int q = 0; q < 4; ++q) EncodeCell(tree, node.child[q], out);
}

/// Recursive decoder; returns the new cell's index or -1 on truncation.
int32_t DecodeCellImpl(const std::vector<uint8_t>& buf, size_t* pos,
                       algo::SpqIndex::Tree* tree) {
  if (*pos >= buf.size()) return -1;
  const uint8_t tag = buf[(*pos)++];
  const auto idx = static_cast<int32_t>(tree->nodes.size());
  tree->nodes.emplace_back();
  if (tag == 0) {
    if (*pos + 2 > buf.size()) return -1;
    const uint16_t color = GetU16(buf.data() + *pos);
    *pos += 2;
    tree->nodes[idx].color = color == kNoColorU16
                                 ? algo::SpqIndex::QtNode::kNoColor
                                 : color;
    return idx;
  }
  for (int q = 0; q < 4; ++q) {
    const int32_t child = DecodeCellImpl(buf, pos, tree);
    if (child < 0) return -1;
    tree->nodes[idx].child[q] = child;
  }
  return idx;
}

}  // namespace

void EncodeSpqTree(const algo::SpqIndex::Tree& tree,
                   std::vector<uint8_t>* out) {
  EncodeCell(tree, 0, out);
}

bool DecodeSpqTree(const std::vector<uint8_t>& buf, size_t* pos,
                   algo::SpqIndex::Tree* tree) {
  return DecodeCellImpl(buf, pos, tree) >= 0;
}

size_t SkimSpqTree(const std::vector<uint8_t>& buf, size_t* pos) {
  size_t cells = 0;
  // Cells still to read: the root, then four more per internal cell.
  for (size_t pending = 1; pending > 0; --pending) {
    if (*pos >= buf.size()) return 0;
    ++cells;
    if (buf[(*pos)++] != 0) {
      pending += 4;
      continue;
    }
    if (*pos + 2 > buf.size()) return 0;
    *pos += 2;
  }
  return cells;
}

namespace {

/// SPQ: the quadtree-guided search over a graph::Graph rebuilt from the
/// received network.
struct SpqMethod {
  static constexpr std::string_view kName = "SPQ";
  static constexpr bool kRebuildsGraph = true;

  uint32_t num_nodes = 0;

  bool RepairAux(const broadcast::ReceivedSegment&,
                 const ClientOptions&) const {
    return true;  // a tree with holes cannot be decoded
  }

  struct Query {
    Query(const SpqMethod& method, ClientRun& run)
        : n(method.num_nodes),
          run(run),
          coords(n),
          chunks((n + kTreesPerChunk - 1) / kTreesPerChunk) {
      run.scratch().spq_trees.assign(n, {});
    }

    void OnAux(broadcast::ReceivedSegment& seg) {
      if (seg.segment_id == kHeaderSegment) {
        if (seg.complete && seg.payload.size() >= 32) {
          root[0] = std::bit_cast<double>(GetU64(seg.payload.data()));
          root[1] = std::bit_cast<double>(GetU64(seg.payload.data() + 8));
          root[2] = std::bit_cast<double>(GetU64(seg.payload.data() + 16));
          header_ok = true;
        }
        return;
      }
      // Keep the chunk encoded and note where each tree starts; Search
      // decodes only the trees its walk visits. The charge is the decoded
      // trees' footprint all the same, and the raw bytes are released
      // here, as if decoded.
      const uint32_t chunk = seg.segment_id - 1;
      chunks[chunk] = std::move(seg);
      const std::vector<uint8_t>& payload = chunks[chunk].payload;
      std::vector<QueryScratch::SpqTreeRef>& trees = run.scratch().spq_trees;
      size_t cells = 0;
      size_t pos = 0;
      for (uint32_t v = chunk * kTreesPerChunk; v < n && pos < payload.size();
           ++v) {
        const size_t start = pos;
        const size_t tree_cells = SkimSpqTree(payload, &pos);
        if (tree_cells == 0) break;
        cells += tree_cells;
        trees[v] = {chunk, static_cast<uint32_t>(start)};
      }
      run.memory.Charge(cells * sizeof(algo::SpqIndex::QtNode));
      run.memory.Release(payload.size());
    }

    FullCycleAnswer Search(const AirQuery& query) {
      if (!header_ok) return {};
      std::optional<graph::Graph> gr = run.RebuildGraph(std::move(coords));
      if (!gr.has_value()) return {};
      const algo::SpqIndex idx =
          algo::SpqIndex::FromParts(root[0], root[1], root[2], {});
      QueryScratch& s = run.scratch();
      const graph::Dist dist = idx.QueryDistance(
          *gr, query.source, query.target,
          [&](graph::NodeId v) -> const algo::SpqIndex::Tree* {
            const QueryScratch::SpqTreeRef& ref = s.spq_trees[v];
            if (ref.chunk == QueryScratch::SpqTreeRef::kNone) return nullptr;
            size_t pos = ref.offset;
            s.spq_tree.nodes.clear();
            DecodeSpqTree(chunks[ref.chunk].payload, &pos, &s.spq_tree);
            return &s.spq_tree;
          });
      return {dist, dist != graph::kInfDist};
    }

    const uint32_t n;
    ClientRun& run;
    // Moved into the rebuilt Graph, so not pooled; the edge list is.
    std::vector<graph::Point> coords;
    // Tree chunks by segment id - 1, moved out of the receive loop's
    // scratch like AF's flag segments.
    std::vector<broadcast::ReceivedSegment> chunks;
    double root[3] = {0, 0, 1};
    bool header_ok = false;
  };
};

}  // namespace

Result<std::unique_ptr<AirSystem>> BuildSpqOnAir(const graph::Graph& g,
                                                 const BuildConfig& config) {
  const auto n = static_cast<uint32_t>(g.num_nodes());
  device::Stopwatch sw;
  AIRINDEX_ASSIGN_OR_RETURN(auto idx, algo::SpqIndex::Build(g));
  const double precompute_seconds = sw.ElapsedMs() / 1000.0;

  std::vector<broadcast::Segment> aux;
  {
    std::vector<uint8_t>& out = AddAuxSegment(&aux, kHeaderSegment);
    PutU64(&out, std::bit_cast<uint64_t>(idx.root_min_x()));
    PutU64(&out, std::bit_cast<uint64_t>(idx.root_min_y()));
    PutU64(&out, std::bit_cast<uint64_t>(idx.root_size()));
    PutU32(&out, n);
    PutU32(&out, kTreesPerChunk);
  }
  for (uint32_t first = 0; first < n; first += kTreesPerChunk) {
    std::vector<uint8_t>& out =
        AddAuxSegment(&aux, 1 + first / kTreesPerChunk);
    const uint32_t last = std::min(first + kTreesPerChunk, n);
    for (uint32_t v = first; v < last; ++v) {
      EncodeSpqTree(idx.TreeOf(v), &out);
    }
  }
  return MakeFullCycleSystem(g, config, SpqMethod{n}, std::move(aux),
                             precompute_seconds);
}

}  // namespace airindex::core
