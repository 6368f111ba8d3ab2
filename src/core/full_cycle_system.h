#ifndef AIRINDEX_CORE_FULL_CYCLE_SYSTEM_H_
#define AIRINDEX_CORE_FULL_CYCLE_SYSTEM_H_

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "broadcast/cycle.h"
#include "common/result.h"
#include "core/air_system.h"
#include "core/client_run.h"
#include "core/cycle_common.h"
#include "core/full_cycle.h"
#include "graph/graph.h"

namespace airindex::core {

/// The full-cycle methods (§3.2). Each cycle carries the whole network in
/// chunked segments, then the method's auxiliary data; having no way to
/// tune selectively, the client listens to the entire cycle, rebuilds what
/// it needs in memory, and searches locally. Lost adjacency packets are
/// re-listened to on later cycles (§6.2); what a lost aux packet costs is
/// the method's own fallback:
///
///   DJ   Dijkstra. No aux data: the shortest possible cycle.
///   LD   Landmark (ALT): a header plus every node's distance vectors
///        to/from each landmark. Lost vectors are not repaired; the
///        affected nodes contribute a zero A* bound (slower, still exact).
///   AF   ArcFlag: a kd-split header plus one flag vector per arc, in
///        segments apart from the adjacency so one lost packet cannot take
///        out both. Lost flags read as all-ones (never pruned). A lost
///        header fails the query unless ClientOptions::repair_header.
///   SPQ  Shortest-path quadtree: every node's coloured quadtree,
///        serialized pre-order.
///   HiTi A kd-split header plus every hierarchy level's border
///        super-edge tables (HiTi could tune selectively, but its client
///        must first receive the whole index).
///
/// SPQ's and HiTi's aux data is several times larger than the network
/// (Table 1), which rules them out on memory-limited devices; the paper
/// reports only their cycle lengths, and their clients run at test scales.
Result<std::unique_ptr<AirSystem>> BuildDijkstraOnAir(
    const graph::Graph& g, const BuildConfig& config = {});
Result<std::unique_ptr<AirSystem>> BuildLandmarkOnAir(
    const graph::Graph& g, uint32_t num_landmarks, uint64_t seed = 17,
    const BuildConfig& config = {});
Result<std::unique_ptr<AirSystem>> BuildArcFlagOnAir(
    const graph::Graph& g, uint32_t num_regions,
    const BuildConfig& config = {});
Result<std::unique_ptr<AirSystem>> BuildSpqOnAir(
    const graph::Graph& g, const BuildConfig& config = {});
Result<std::unique_ptr<AirSystem>> BuildHiTiOnAir(
    const graph::Graph& g, uint32_t num_regions,
    const BuildConfig& config = {});

/// What a full-cycle client's final search found.
struct FullCycleAnswer {
  graph::Dist dist = graph::kInfDist;
  bool ok = false;
};

/// The one AirSystem behind the five methods above. `Method` holds the
/// server-built constants the client needs and supplies:
///   - `static constexpr std::string_view kName`, the paper's name;
///   - `static constexpr bool kRebuildsGraph`: network records go to the
///     scratch edge list and `Query::coords` for a graph::Graph rebuild
///     (AF, SPQ, HiTi) rather than to the PartialGraph (DJ, LD);
///   - `bool RepairAux(const ReceivedSegment&, const ClientOptions&)`,
///     whether a lossy aux segment is worth re-listening to;
///   - `Query`, the per-query client state, built from
///     `(const Method&, ClientRun&)`, with `void OnAux(ReceivedSegment&)`
///     (the aux handler; it may move the segment's buffers out) and
///     `FullCycleAnswer Search(const AirQuery&)`.
/// The method's factory builds its aux segments and hands them to
/// MakeFullCycleSystem.
template <typename Method>
class FullCycleSystem final : public AirSystem {
 public:
  FullCycleSystem(Method method, broadcast::BroadcastCycle cycle,
                  size_t num_nodes, broadcast::CycleEncoding encoding,
                  double precompute_seconds)
      : method_(std::move(method)),
        cycle_(std::move(cycle)),
        num_nodes_(num_nodes),
        encoding_(encoding),
        precompute_seconds_(precompute_seconds) {}

  std::string_view name() const override { return Method::kName; }
  const broadcast::BroadcastCycle& cycle() const override { return cycle_; }
  double precompute_seconds() const override { return precompute_seconds_; }

  device::QueryMetrics RunQuery(const broadcast::BroadcastChannel& channel,
                                const AirQuery& query,
                                const ClientOptions& options = {},
                                QueryScratch* scratch =
                                    nullptr) const override {
    ClientRun run(channel, StartPosition(channel, query), num_nodes_, options,
                  scratch);
    QueryScratch& s = run.scratch();
    typename Method::Query client(method_, run);
    const Status receive_status = ReceiveFullCycleCached(
        run.session, run.memory, &s.session,
        [&](const broadcast::ReceivedSegment& seg) {
          return seg.type == broadcast::SegmentType::kNetworkData ||
                 method_.RepairAux(seg, options);
        },
        [&](broadcast::ReceivedSegment& seg) {
          device::Stopwatch sw;
          if (seg.type != broadcast::SegmentType::kNetworkData) {
            client.OnAux(seg);
          } else if constexpr (Method::kRebuildsGraph) {
            run.IngestEdges(seg, encoding_, client.coords);
          } else {
            run.IngestRecords(seg, encoding_);
          }
          // Zero for a segment whose payload the handler moved out.
          run.memory.Release(seg.payload.size());
          run.cpu_ms += sw.ElapsedMs();
        },
        options.max_repair_cycles, &s.full_cycle);

    device::Stopwatch sw;
    const FullCycleAnswer answer = client.Search(query);
    run.cpu_ms += sw.ElapsedMs();
    return run.Finish(answer.dist, receive_status.ok() && answer.ok);
  }

 private:
  const Method method_;
  broadcast::BroadcastCycle cycle_;
  size_t num_nodes_;
  broadcast::CycleEncoding encoding_;
  double precompute_seconds_;
};

/// Assembles a full-cycle system: the network segments of `g`, then `aux`
/// in order.
template <typename Method>
Result<std::unique_ptr<AirSystem>> MakeFullCycleSystem(
    const graph::Graph& g, const BuildConfig& config, Method method,
    std::vector<broadcast::Segment> aux, double precompute_seconds) {
  broadcast::CycleBuilder builder;
  AppendNetworkSegments(g, &builder, kNetworkChunkNodes, config.encoding);
  for (broadcast::Segment& seg : aux) builder.Add(std::move(seg));
  AIRINDEX_ASSIGN_OR_RETURN(
      auto cycle, std::move(builder).Finalize(/*require_index=*/false));
  return std::unique_ptr<AirSystem>(new FullCycleSystem<Method>(
      std::move(method), std::move(cycle), g.num_nodes(), config.encoding,
      precompute_seconds));
}

/// Appends an empty aux segment with id `id` and returns its payload.
inline std::vector<uint8_t>& AddAuxSegment(std::vector<broadcast::Segment>* aux,
                                           uint32_t id) {
  broadcast::Segment& seg = aux->emplace_back();
  seg.type = broadcast::SegmentType::kAuxData;
  seg.id = id;
  return seg.payload;
}

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_FULL_CYCLE_SYSTEM_H_
