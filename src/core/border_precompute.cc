#include "core/border_precompute.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <mutex>

#include "algo/dijkstra.h"
#include "algo/search_workspace.h"
#include "common/thread_pool.h"
#include "partition/kd_tree.h"

namespace airindex::core {

std::vector<graph::RegionId> BorderPrecompute::NeededRegions(
    graph::RegionId i, graph::RegionId j) const {
  std::vector<graph::RegionId> out;
  NeededRegionsInto(i, j, &out);
  return out;
}

void BorderPrecompute::NeededRegionsInto(
    graph::RegionId i, graph::RegionId j,
    std::vector<graph::RegionId>* out) const {
  out->clear();
  const size_t words = words_per_pair();
  const uint64_t* mask =
      traversed.data() + (static_cast<size_t>(i) * num_regions + j) * words;
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = mask[w];
    // Endpoint regions are always needed, whether or not a recorded path
    // touches them.
    if (i / 64 == w) bits |= uint64_t{1} << (i % 64);
    if (j / 64 == w) bits |= uint64_t{1} << (j % 64);
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      out->push_back(static_cast<graph::RegionId>(w * 64 + bit));
      bits &= bits - 1;
    }
  }
}

void BorderPrecompute::NeededRegionsMask(graph::RegionId i, graph::RegionId j,
                                         uint64_t* words) const {
  const size_t n = words_per_pair();
  const uint64_t* mask =
      traversed.data() + (static_cast<size_t>(i) * num_regions + j) * n;
  std::copy(mask, mask + n, words);
  words[i / 64] |= uint64_t{1} << (i % 64);
  words[j / 64] |= uint64_t{1} << (j % 64);
}

Result<BorderPrecompute> ComputeBorderPrecompute(
    const graph::Graph& g, partition::Partitioning part,
    unsigned num_threads) {
  if (part.node_region.size() != g.num_nodes()) {
    return Status::InvalidArgument("partitioning does not match graph");
  }
  const auto start = std::chrono::steady_clock::now();

  BorderPrecompute pre;
  pre.num_regions = part.num_regions;
  pre.part = std::move(part);
  pre.borders = partition::ComputeBorders(g, pre.part);

  const uint32_t R = pre.num_regions;
  const size_t words = pre.words_per_pair();
  pre.min_rr.assign(static_cast<size_t>(R) * R, graph::kInfDist);
  pre.max_rr.assign(static_cast<size_t>(R) * R, 0);
  pre.traversed.assign(static_cast<size_t>(R) * R * words, 0);
  pre.cross_border.assign(g.num_nodes(), 0);

  const std::vector<graph::NodeId>& B = pre.borders.border_nodes;
  const std::vector<graph::RegionId>& node_region = pre.part.node_region;
  const std::vector<uint8_t>& is_border = pre.borders.is_border;
  const size_t n = g.num_nodes();
  std::mutex merge_mu;

  // One search workspace + one set of scratch arrays per worker thread,
  // reused across every source the worker claims: the border-pair stage
  // runs |B| single-source searches, so per-search O(n) allocation would
  // dominate. Sources are claimed as chunks of kSourceChunk from a shared
  // atomic cursor (work stealing) rather than a static per-worker slice:
  // per-source cost is heavily skewed (dense downtown regions cost far
  // more than rural ones). Merging is commutative (min/max/or), so results
  // are byte-identical regardless of which worker ran which source —
  // pinned by core.precompute_parallel_test and core.precompute_golden_test.
  constexpr size_t kSourceChunk = 64;
  struct WorkerState {
    algo::SearchWorkspace ws;
    /// Settle order of the current search.
    std::vector<graph::NodeId> order;
    /// `words` per node: the regions on the tree path source -> v.
    std::vector<uint64_t> path_masks;
    /// Backward-pass flag: v has a reached border node in its subtree.
    /// All zero between sources.
    std::vector<uint8_t> need;
    /// This worker's cross-border marks, OR-merged after the sweep.
    std::vector<uint8_t> cross;
    std::vector<graph::Dist> row_min;
    std::vector<graph::Dist> row_max;
    std::vector<uint64_t> row_masks;
  };
  std::vector<WorkerState> workers(ResolveWorkers(B.size(), num_threads));

  ParallelForChunked(
      B.size(), kSourceChunk,
      [&](unsigned worker, size_t begin, size_t end) {
        WorkerState& st = workers[worker];
        if (st.cross.empty()) {
          st.path_masks.resize(n * words);
          st.need.assign(n, 0);
          st.cross.assign(n, 0);
        }
        for (size_t bi = begin; bi < end; ++bi) {
          const graph::NodeId b = B[bi];
          const graph::RegionId rb = node_region[b];
          algo::DijkstraToTargets(g, b, B, st.ws, &st.order);

          // Forward pass over the shortest-path tree: a parent settles
          // before its children, so its path mask is final when read.
          for (graph::NodeId v : st.order) {
            uint64_t* mask = st.path_masks.data() + v * words;
            const graph::NodeId parent = st.ws.ParentOf(v);
            if (parent == graph::kInvalidNode) {
              std::fill(mask, mask + words, 0);
            } else {
              const uint64_t* up = st.path_masks.data() + parent * words;
              std::copy(up, up + words, mask);
            }
            const graph::RegionId rv = node_region[v];
            mask[rv / 64] |= uint64_t{1} << (rv % 64);
          }

          // Row rb: distances and traversed regions of every recorded
          // path b -> b2.
          st.row_min.assign(R, graph::kInfDist);
          st.row_max.assign(R, 0);
          st.row_masks.assign(static_cast<size_t>(R) * words, 0);
          for (graph::NodeId b2 : B) {
            const graph::Dist d = st.ws.DistTo(b2);
            if (d == graph::kInfDist) continue;
            const graph::RegionId r2 = node_region[b2];
            st.row_min[r2] = std::min(st.row_min[r2], d);
            st.row_max[r2] = std::max(st.row_max[r2], d);
            const uint64_t* path = st.path_masks.data() + b2 * words;
            uint64_t* row =
                st.row_masks.data() + static_cast<size_t>(r2) * words;
            for (size_t w = 0; w < words; ++w) row[w] |= path[w];
          }

          // Backward pass: a node lies on some recorded border-pair path
          // (for inter-region pairs per the paper; we include all pairs, a
          // safe superset) iff its subtree holds a reached border node.
          // Every settled border node is a reached target.
          for (auto it = st.order.rbegin(); it != st.order.rend(); ++it) {
            const graph::NodeId v = *it;
            if (!st.need[v] && !is_border[v]) continue;
            st.need[v] = 0;
            st.cross[v] = 1;
            const graph::NodeId parent = st.ws.ParentOf(v);
            if (parent != graph::kInvalidNode) st.need[parent] = 1;
          }

          std::lock_guard<std::mutex> lock(merge_mu);
          for (graph::RegionId r2 = 0; r2 < R; ++r2) {
            const size_t cell = static_cast<size_t>(rb) * R + r2;
            pre.min_rr[cell] = std::min(pre.min_rr[cell], st.row_min[r2]);
            pre.max_rr[cell] = std::max(pre.max_rr[cell], st.row_max[r2]);
            const size_t base = cell * words;
            for (size_t w = 0; w < words; ++w) {
              pre.traversed[base + w] |=
                  st.row_masks[static_cast<size_t>(r2) * words + w];
            }
          }
        }
      },
      num_threads);

  for (const WorkerState& st : workers) {
    for (size_t v = 0; v < st.cross.size(); ++v) {
      pre.cross_border[v] |= st.cross[v];
    }
  }

  pre.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return pre;
}

Result<BorderPrecompute> ComputeKdBorderPrecompute(const graph::Graph& g,
                                                   uint32_t num_regions,
                                                   unsigned num_threads) {
  AIRINDEX_ASSIGN_OR_RETURN(
      auto kd, partition::KdTreePartitioner::Build(g, num_regions));
  return ComputeBorderPrecompute(g, kd.Partition(g), num_threads);
}

}  // namespace airindex::core
