#include <algorithm>

#include "algo/astar.h"
#include "algo/landmark.h"
#include "common/byte_io.h"
#include "core/full_cycle_system.h"

namespace airindex::core {
namespace {

/// Aux segment ids: 0 = header (landmark ids), 1+i = i-th distance-vector
/// chunk.
constexpr uint32_t kHeaderSegment = 0;
constexpr uint32_t kVecChunkNodes = 512;
constexpr uint32_t kInfU32 = 0xFFFFFFFFu;

uint32_t SaturateDist(graph::Dist d) {
  return d >= kInfU32 ? kInfU32 : static_cast<uint32_t>(d);
}

graph::Dist Unsaturate(uint32_t v) {
  return v == kInfU32 ? graph::kInfDist : v;
}

/// LD: A* over the received network, guided by the ALT bounds of the
/// received distance vectors.
struct LandmarkMethod {
  static constexpr std::string_view kName = "LD";
  static constexpr bool kRebuildsGraph = false;

  uint32_t num_nodes = 0;

  bool RepairAux(const broadcast::ReceivedSegment&,
                 const ClientOptions&) const {
    return false;  // lost vectors only weaken the bound
  }

  struct Query {
    Query(const LandmarkMethod& method, ClientRun& run)
        : n(method.num_nodes),
          run(run),
          to_vec(run.scratch().ld_to),
          from_vec(run.scratch().ld_from) {
      to_vec.clear();
      from_vec.clear();
    }

    void OnAux(broadcast::ReceivedSegment& seg) {
      if (seg.segment_id == kHeaderSegment) {
        if (!seg.complete) return;  // no landmarks -> zero bounds
        ByteReader reader(seg.payload);
        k = reader.ReadU16();
        const uint32_t nodes = reader.ReadU32();
        to_vec.assign(static_cast<size_t>(k) * nodes, graph::kInfDist);
        from_vec.assign(static_cast<size_t>(k) * nodes, graph::kInfDist);
        run.memory.Charge(to_vec.size() * 4 * 2);  // client keeps u32s
        return;
      }
      if (k == 0) return;  // header lost: vectors unusable (§6.2 fallback)
      const uint32_t first = (seg.segment_id - 1) * kVecChunkNodes;
      const size_t stride = static_cast<size_t>(k) * 8;
      const auto count = static_cast<uint32_t>(seg.payload.size() / stride);
      for (uint32_t i = 0; i < count; ++i) {
        const size_t off = i * stride;
        // Skip vectors touched by a lost packet (bound falls back to 0).
        if (!seg.RangeOk(off, off + stride)) continue;
        const graph::NodeId v = first + i;
        for (uint32_t l = 0; l < k; ++l) {
          to_vec[static_cast<size_t>(l) * n + v] =
              Unsaturate(GetU32(seg.payload.data() + off + 4 * l));
          from_vec[static_cast<size_t>(l) * n + v] =
              Unsaturate(GetU32(seg.payload.data() + off + 4 * (k + l)));
        }
      }
    }

    FullCycleAnswer Search(const AirQuery& query) {
      const graph::NodeId t = query.target;
      auto lower_bound = [&](graph::NodeId v) -> graph::Dist {
        graph::Dist best = 0;
        for (uint32_t l = 0; l < k; ++l) {
          const size_t base = static_cast<size_t>(l) * n;
          const graph::Dist v_to = to_vec[base + v];
          const graph::Dist t_to = to_vec[base + t];
          const graph::Dist v_from = from_vec[base + v];
          const graph::Dist t_from = from_vec[base + t];
          if (v_to != graph::kInfDist && t_to != graph::kInfDist &&
              v_to > t_to) {
            best = std::max(best, v_to - t_to);
          }
          if (v_from != graph::kInfDist && t_from != graph::kInfDist &&
              t_from > v_from) {
            best = std::max(best, t_from - v_from);
          }
        }
        return best;
      };
      QueryScratch& s = run.scratch();
      if (!s.partial_graph.Has(query.source) ||
          !s.partial_graph.Has(query.target)) {
        return {};  // an endpoint's record was lost for good
      }
      algo::AStarSearch(s.partial_graph, query.source, query.target,
                        lower_bound, s.search,
                        KnownEdgeFilter{&s.partial_graph});
      const graph::Dist dist = s.search.DistTo(query.target);
      return {dist, dist != graph::kInfDist};
    }

    const uint32_t n;
    ClientRun& run;
    uint32_t k = 0;
    // to_vec[l * n + v] = d(v, L_l); from_vec likewise d(L_l, v).
    std::vector<graph::Dist>& to_vec;
    std::vector<graph::Dist>& from_vec;
  };
};

}  // namespace

Result<std::unique_ptr<AirSystem>> BuildLandmarkOnAir(
    const graph::Graph& g, uint32_t num_landmarks, uint64_t seed,
    const BuildConfig& config) {
  const auto n = static_cast<uint32_t>(g.num_nodes());
  device::Stopwatch sw;
  AIRINDEX_ASSIGN_OR_RETURN(
      auto idx, algo::LandmarkIndex::Build(g, num_landmarks, seed));
  const double precompute_seconds = sw.ElapsedMs() / 1000.0;

  const uint32_t k = idx.num_landmarks();
  std::vector<broadcast::Segment> aux;
  // Header: landmark count + node count + landmark ids.
  {
    std::vector<uint8_t>& out = AddAuxSegment(&aux, kHeaderSegment);
    PutU16(&out, static_cast<uint16_t>(k));
    PutU32(&out, n);
    for (graph::NodeId l : idx.landmarks()) PutU32(&out, l);
  }
  // Distance vectors: per node, k "to" then k "from" u32 values, chunked.
  for (uint32_t first = 0; first < n; first += kVecChunkNodes) {
    std::vector<uint8_t>& out =
        AddAuxSegment(&aux, 1 + first / kVecChunkNodes);
    const uint32_t last = std::min(first + kVecChunkNodes, n);
    out.reserve(static_cast<size_t>(last - first) * k * 8);
    for (uint32_t v = first; v < last; ++v) {
      for (uint32_t l = 0; l < k; ++l) {
        PutU32(&out, SaturateDist(idx.ToLandmark(l, v)));
      }
      for (uint32_t l = 0; l < k; ++l) {
        PutU32(&out, SaturateDist(idx.FromLandmark(l, v)));
      }
    }
  }
  return MakeFullCycleSystem(g, config, LandmarkMethod{n}, std::move(aux),
                             precompute_seconds);
}

}  // namespace airindex::core
