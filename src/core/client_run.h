#ifndef AIRINDEX_CORE_CLIENT_RUN_H_
#define AIRINDEX_CORE_CLIENT_RUN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/serialization.h"
#include "core/air_system.h"
#include "core/query_scratch.h"
#include "core/super_edge.h"
#include "device/memory_tracker.h"
#include "device/metrics.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace airindex::core {

/// The state every client query shares: the device heap tracker, the
/// radio session opened at the tune-in position, the query scratch (the
/// caller's, or a throwaway local when none is given — the
/// allocate-per-query behaviour), and the QueryMetrics fill. A client
/// opens one ClientRun, listens and searches through it, and returns
/// Finish(distance, ok); a client that gives up early returns `metrics`
/// as it stands, without the session's counters.
///
/// ClientRun is where a received record id becomes trusted: it is built
/// with the node count of the system it serves, and every ingest (the
/// scratch's PartialGraph, IngestEdges) drops a record whose id is at or
/// past it — what a network segment still holed after the repair budget
/// misparses into.
class ClientRun {
 public:
  ClientRun(const broadcast::BroadcastChannel& channel, uint64_t start_pos,
            size_t num_nodes, const ClientOptions& options,
            QueryScratch* scratch);
  ClientRun(const ClientRun&) = delete;
  ClientRun& operator=(const ClientRun&) = delete;

  QueryScratch& scratch() { return *scratch_; }

  /// Decodes a network-data segment into the scratch's PartialGraph
  /// (DJ, LD), charging the graph's growth to `memory`. A segment that
  /// fails validation adds no record.
  void IngestRecords(const broadcast::ReceivedSegment& seg,
                     broadcast::CycleEncoding encoding);

  /// Decodes a network-data segment into the scratch's edge list plus
  /// `coords` (AF, SPQ, HiTi: the clients that rebuild a graph::Graph),
  /// charging 12 bytes per arc and 20 per record. Callers size `coords`
  /// to the node count up front; a record past it is skipped.
  void IngestEdges(const broadcast::ReceivedSegment& seg,
                   broadcast::CycleEncoding encoding,
                   std::vector<graph::Point>& coords);

  /// Rebuilds a graph::Graph from `coords` and the scratch's edge list
  /// (AF, SPQ, HiTi) and charges its size; nullopt when the received
  /// records do not form a graph.
  std::optional<graph::Graph> RebuildGraph(std::vector<graph::Point>&& coords);

  /// Decodes one region segment (EB, NR, kNN, range) into the scratch's
  /// PartialGraph, charging the graph's growth. Returns whether the
  /// segment was valid; an invalid one adds no record. Releasing the
  /// payload and counting the region are the caller's.
  bool IngestRegion(const broadcast::ReceivedSegment& seg,
                    broadcast::CycleEncoding encoding);

  /// Ingests one EB/NR region: its cross segment and, when `local` is
  /// non-null, its local segment. With `collapse` set, the region is
  /// collapsed into super-edges instead (§6.1 memory-bound processing):
  /// the decoded records are charged while the overlay absorbs them, and
  /// the overlay's growth stays charged. Returns whether the cross
  /// segment was valid; a region whose cross segment is invalid adds
  /// nothing, whatever its local segment holds.
  bool IngestRegionPair(const broadcast::ReceivedSegment& cross,
                        const broadcast::ReceivedSegment* local,
                        broadcast::CycleEncoding encoding,
                        SuperEdgeProcessor* collapse);

  /// The final local search of EB and NR: the §6.1 overlay's answer when
  /// `collapse` is set, else Dijkstra over the scratch's PartialGraph.
  /// kInfDist when an endpoint record never arrived.
  graph::Dist SearchRegions(const AirQuery& query,
                            const SuperEdgeProcessor* collapse);

  /// Fills `metrics` from the session, the heap tracker and the session
  /// cache, and returns it.
  device::QueryMetrics Finish(graph::Dist distance, bool ok);

  device::MemoryTracker memory;
  broadcast::ClientSession session;
  device::QueryMetrics metrics;
  /// Client-side decode + search time, milliseconds.
  double cpu_ms = 0.0;

 private:
  std::optional<QueryScratch> local_;
  QueryScratch* scratch_;
  size_t num_nodes_;
};

/// The one fetch of region segments (EB, NR, kNN, range): a region's
/// cross segment plus, optionally, its local segment (§4.1). As §6.2
/// prescribes, a damaged region is stashed, one repair sweep covers the
/// whole stash, and the stash is then ingested in fetch order. Buffers
/// come from the scratch's SegmentArena; nothing is allocated while no
/// packet is lost.
///
/// The ingest step, `ingest(cross, local)` with `local` null for a region
/// fetched without one, is the caller's: it counts the region and
/// releases the payload charges. NR releases a region whose cross segment
/// is invalid, EB keeps it charged and uncounted, kNN ingests cross and
/// local separately and always counts, range fetches every segment as a
/// region of its own.
class RegionFetch {
 public:
  template <typename Ingest>
  RegionFetch(ClientRun& run, Ingest& ingest)
      : run_(run),
        cache_on_(run.scratch().session.Ready(run.session.channel())),
        ingest_ctx_(&ingest),
        ingest_fn_([](void* ctx, broadcast::ReceivedSegment& cross,
                      broadcast::ReceivedSegment* local) {
          (*static_cast<Ingest*>(ctx))(cross, local);
        }) {}
  RegionFetch(const RegionFetch&) = delete;
  RegionFetch& operator=(const RegionFetch&) = delete;

  /// Whether the scratch's session cache is armed for this channel.
  bool cache_on() const { return cache_on_; }

  /// Fills `*out` with the segment starting at flat-cycle packet `start`:
  /// a session-cache copy (counted as a hit), or the segment received on
  /// air and offered to the cache, which keeps it only if complete.
  /// Charges nothing.
  void FetchSegment(uint32_t start, broadcast::ReceivedSegment* out);

  /// Fetches one region, charging each payload as it arrives: the cross
  /// segment at `cross_start`, then the local segment at `local_start`
  /// when given. A region that arrived complete is ingested at once;
  /// otherwise it is stashed for Flush.
  void Fetch(uint32_t cross_start, std::optional<uint32_t> local_start);

  /// Repairs every stashed segment in one RepairAllSegments sweep of at
  /// most `max_repair_cycles` cycles, caches the segments the sweep
  /// completed, and ingests the stash in fetch order. No-op when nothing
  /// is stashed.
  void Flush(int max_repair_cycles);

 private:
  struct Stashed {
    broadcast::ReceivedSegment* cross;
    broadcast::ReceivedSegment* local;  // null: fetched without one
    uint32_t cross_start;
    uint32_t local_start;
  };

  void Ingest(const Stashed& region);

  ClientRun& run_;
  const bool cache_on_;
  void* ingest_ctx_;
  void (*ingest_fn_)(void*, broadcast::ReceivedSegment&,
                     broadcast::ReceivedSegment*);
  std::vector<Stashed> stash_;  // lossy path only
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_CLIENT_RUN_H_
