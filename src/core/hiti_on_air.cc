#include <bit>

#include "algo/hiti.h"
#include "common/byte_io.h"
#include "core/full_cycle_system.h"
#include "partition/kd_tree.h"

namespace airindex::core {
namespace {

constexpr uint32_t kHeaderSegment = 0;
constexpr uint32_t kInfU32 = 0xFFFFFFFFu;

uint32_t SaturateDist(graph::Dist d) {
  if (d == graph::kInfDist) return kInfU32;
  return d >= kInfU32 ? kInfU32 - 1 : static_cast<uint32_t>(d);
}

/// HiTi: the hierarchical search over a graph::Graph rebuilt from the
/// received network plus the received super-edge tables.
struct HiTiMethod {
  static constexpr std::string_view kName = "HiTi";
  static constexpr bool kRebuildsGraph = true;

  uint32_t num_regions = 0;
  uint32_t num_nodes = 0;

  bool RepairAux(const broadcast::ReceivedSegment&,
                 const ClientOptions&) const {
    return true;  // the index must be complete to be usable
  }

  struct Query {
    Query(const HiTiMethod& method, ClientRun& run)
        : num_regions(method.num_regions),
          run(run),
          coords(method.num_nodes),
          subs(2 * num_regions) {}

    void OnAux(broadcast::ReceivedSegment& seg) {
      if (seg.segment_id == kHeaderSegment) {
        if (seg.complete && seg.payload.size() >= 6) {
          ByteReader reader(seg.payload);
          const uint16_t regions = reader.ReadU16();
          reader.ReadU32();
          for (uint16_t i = 0; i + 1 < regions; ++i) {
            splits.push_back(std::bit_cast<double>(reader.ReadU64()));
          }
          header_ok = true;
          run.memory.Charge(splits.size() * 8);
        }
        return;
      }
      if (seg.segment_id >= subs.size() || seg.payload.size() < 4) return;
      ByteReader reader(seg.payload);
      const uint32_t nb = reader.ReadU32();
      const size_t cells = static_cast<size_t>(nb) * nb;
      auto& sub = subs[seg.segment_id];
      sub.border.reserve(nb);
      for (uint32_t i = 0; i < nb; ++i) sub.border.push_back(reader.ReadU32());
      sub.dmat.reserve(cells);
      for (size_t i = 0; i < cells; ++i) {
        const uint32_t v = reader.ReadU32();
        sub.dmat.push_back(v == kInfU32 ? graph::kInfDist : v);
      }
      sub.next_hop.reserve(cells);
      for (size_t i = 0; i < cells; ++i) {
        sub.next_hop.push_back(reader.ReadU32());
      }
      run.memory.Charge(nb * 4 + cells * 12);
    }

    FullCycleAnswer Search(const AirQuery& query) {
      if (!header_ok) return {};
      std::optional<graph::Graph> gr = run.RebuildGraph(std::move(coords));
      if (!gr.has_value()) return {};
      auto kd = partition::KdTreePartitioner::FromSplits(splits);
      if (!kd.ok()) return {};
      algo::HiTiIndex idx = algo::HiTiIndex::FromTables(
          num_regions, kd->Partition(*gr), std::move(subs));
      size_t settled = 0;
      const graph::Dist dist =
          idx.QueryDistance(*gr, query.source, query.target, &settled);
      return {dist, dist != graph::kInfDist};
    }

    const uint32_t num_regions;
    ClientRun& run;
    // Moved into the rebuilt Graph / HiTiIndex, so not pooled. The edge
    // list is.
    std::vector<graph::Point> coords;
    std::vector<double> splits;
    std::vector<algo::HiTiIndex::SubgraphInfo> subs;
    bool header_ok = false;
  };
};

}  // namespace

Result<std::unique_ptr<AirSystem>> BuildHiTiOnAir(const graph::Graph& g,
                                                  uint32_t num_regions,
                                                  const BuildConfig& config) {
  AIRINDEX_ASSIGN_OR_RETURN(
      auto kd, partition::KdTreePartitioner::Build(g, num_regions));
  device::Stopwatch sw;
  AIRINDEX_ASSIGN_OR_RETURN(auto index, algo::HiTiIndex::Build(g, kd));
  const double precompute_seconds = sw.ElapsedMs() / 1000.0;

  std::vector<broadcast::Segment> aux;
  // Header: region count + node count + kd splits.
  {
    std::vector<uint8_t>& out = AddAuxSegment(&aux, kHeaderSegment);
    PutU16(&out, static_cast<uint16_t>(num_regions));
    PutU32(&out, static_cast<uint32_t>(g.num_nodes()));
    for (double s : kd.splits_bfs()) {
      PutU64(&out, std::bit_cast<uint64_t>(s));
    }
  }
  // One aux segment per hierarchy sub-graph: border list + distance matrix
  // + first-hop matrix (HiTi stores path views, not just distances).
  for (uint32_t h = 1; h < 2 * num_regions; ++h) {
    const auto& sub = index.Info(h);
    std::vector<uint8_t>& out = AddAuxSegment(&aux, h);
    PutU32(&out, static_cast<uint32_t>(sub.border.size()));
    for (graph::NodeId b : sub.border) PutU32(&out, b);
    for (graph::Dist d : sub.dmat) PutU32(&out, SaturateDist(d));
    for (graph::NodeId hop : sub.next_hop) PutU32(&out, hop);
  }
  const HiTiMethod method{num_regions, static_cast<uint32_t>(g.num_nodes())};
  return MakeFullCycleSystem(g, config, method, std::move(aux),
                             precompute_seconds);
}

}  // namespace airindex::core
