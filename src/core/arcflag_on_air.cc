#include <algorithm>
#include <bit>

#include "algo/arc_flags.h"
#include "algo/dijkstra.h"
#include "common/byte_io.h"
#include "core/full_cycle_system.h"
#include "partition/kd_tree.h"

namespace airindex::core {
namespace {

constexpr uint32_t kHeaderSegment = 0;
constexpr uint32_t kFlagChunkArcs = 4096;

/// AF: the flag-restricted Dijkstra over a graph::Graph rebuilt from the
/// received network (its CSR layout matches the server's: same edges, same
/// per-node sort order, so the flag vectors' arc order lines up).
struct ArcFlagMethod {
  static constexpr std::string_view kName = "AF";
  static constexpr bool kRebuildsGraph = true;

  uint32_t num_regions = 0;
  uint32_t num_nodes = 0;
  uint32_t num_arcs = 0;

  bool RepairAux(const broadcast::ReceivedSegment& seg,
                 const ClientOptions& options) const {
    // A lost flag chunk degrades to all-ones (§6.2), but a lost header
    // kills the query — the kd splits cannot be reconstructed. The opt-in
    // repair closes that gap; off by default to preserve the paper's
    // reproduction numbers.
    return options.repair_header && seg.segment_id == kHeaderSegment;
  }

  struct Query {
    Query(const ArcFlagMethod& method, ClientRun& run)
        : method(method), run(run), coords(method.num_nodes) {
      run.scratch().edges.reserve(method.num_arcs);
    }

    void OnAux(broadcast::ReceivedSegment& seg) {
      if (seg.segment_id != kHeaderSegment) {
        // Raw flag bytes are retained, and stay charged, until the search:
        // only then is the target's region known. Moving them out costs
        // the scratch's segment a fresh buffer next query; AF rebuilds a
        // whole Graph per query anyway.
        flags.push_back(std::move(seg));
        return;
      }
      if (seg.complete) {
        ByteReader reader(seg.payload);
        const uint16_t regions = reader.ReadU16();
        reader.ReadU32();  // node count (known)
        reader.ReadU32();  // arc count (known)
        splits.reserve(regions - 1);
        for (uint16_t i = 0; i + 1 < regions; ++i) {
          splits.push_back(std::bit_cast<double>(reader.ReadU64()));
        }
        header_ok = true;
      }
      run.memory.Charge(splits.size() * 8);
    }

    FullCycleAnswer Search(const AirQuery& query) {
      // Without splits there is no region mapping; ArcFlag cannot run.
      if (!header_ok) return {};
      std::optional<graph::Graph> gr = run.RebuildGraph(std::move(coords));
      if (!gr.has_value()) return {};
      auto kd = partition::KdTreePartitioner::FromSplits(std::move(splits));
      if (!kd.ok()) return {};
      // Charged as the decoded flag matrix, one bit per region per arc,
      // although only the target region's column is materialized.
      const size_t num_arcs = gr->num_arcs();
      run.memory.Charge(num_arcs * ((method.num_regions + 63) / 64) *
                        sizeof(uint64_t));

      QueryScratch& s = run.scratch();
      const graph::RegionId region = kd->RegionOf(gr->Coord(query.target));
      std::vector<uint8_t>& allowed = s.af_allowed;
      allowed.assign(num_arcs, 0);
      const size_t bytes_per_arc = 2 * static_cast<size_t>(method.num_regions);
      for (const broadcast::ReceivedSegment& seg : flags) {
        // Arcs at or past the rebuilt graph's arc count (network records
        // lost for good) have nothing to flag.
        const size_t first_arc = (seg.segment_id - 1) * kFlagChunkArcs;
        if (first_arc >= num_arcs) continue;
        const size_t arcs_in_chunk = std::min(
            seg.payload.size() / bytes_per_arc, num_arcs - first_arc);
        for (size_t i = 0; i < arcs_in_chunk; ++i) {
          const size_t off = i * bytes_per_arc;
          // §6.2: a lost flag vector is assumed all-ones.
          allowed[first_arc + i] |=
              !seg.RangeOk(off, off + bytes_per_arc) ||
              GetU16(seg.payload.data() + off + 2 * region) != 0;
        }
      }
      algo::DijkstraSearch(
          *gr, query.source, query.target,
          [&](graph::NodeId, const graph::Graph::Arc& arc) {
            return allowed[gr->ArcIndex(arc)] != 0;
          },
          s.search);
      const graph::Dist dist = s.search.DistTo(query.target);
      return {dist, dist != graph::kInfDist};
    }

    const ArcFlagMethod& method;
    ClientRun& run;
    // Moved into the rebuilt Graph, so not pooled; the edge list is.
    std::vector<graph::Point> coords;
    std::vector<double> splits;
    std::vector<broadcast::ReceivedSegment> flags;
    bool header_ok = false;
  };
};

}  // namespace

Result<std::unique_ptr<AirSystem>> BuildArcFlagOnAir(
    const graph::Graph& g, uint32_t num_regions, const BuildConfig& config) {
  const ArcFlagMethod method{num_regions,
                             static_cast<uint32_t>(g.num_nodes()),
                             static_cast<uint32_t>(g.num_arcs())};
  AIRINDEX_ASSIGN_OR_RETURN(
      auto kd, partition::KdTreePartitioner::Build(g, num_regions));
  partition::Partitioning part = kd.Partition(g);

  device::Stopwatch sw;
  AIRINDEX_ASSIGN_OR_RETURN(
      auto index, algo::ArcFlagIndex::Build(g, part.node_region, num_regions));
  const double precompute_seconds = sw.ElapsedMs() / 1000.0;

  std::vector<broadcast::Segment> aux;
  // Header: region count + node/arc counts + kd split values (the client
  // re-derives every node's region from these plus the coordinates).
  {
    std::vector<uint8_t>& out = AddAuxSegment(&aux, kHeaderSegment);
    PutU16(&out, static_cast<uint16_t>(num_regions));
    PutU32(&out, method.num_nodes);
    PutU32(&out, method.num_arcs);
    for (double s : kd.splits_bfs()) {
      PutU64(&out, std::bit_cast<uint64_t>(s));
    }
  }
  // Flag vectors in CSR arc order, one u16 per region (see
  // ArcFlagIndex::BytesPerArc for the sizing rationale).
  const size_t bytes_per_arc = index.BytesPerArc();
  for (uint32_t first = 0; first < method.num_arcs; first += kFlagChunkArcs) {
    std::vector<uint8_t>& out =
        AddAuxSegment(&aux, 1 + first / kFlagChunkArcs);
    const uint32_t last = std::min(first + kFlagChunkArcs, method.num_arcs);
    out.reserve(static_cast<size_t>(last - first) * bytes_per_arc);
    for (uint32_t a = first; a < last; ++a) {
      for (uint32_t r = 0; r < num_regions; ++r) {
        PutU16(&out, index.ArcAllowed(a, r) ? 1 : 0);
      }
    }
  }
  return MakeFullCycleSystem(g, config, method, std::move(aux),
                             precompute_seconds);
}

}  // namespace airindex::core
