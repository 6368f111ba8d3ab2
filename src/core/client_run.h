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
class ClientRun {
 public:
  ClientRun(const broadcast::BroadcastChannel& channel, uint64_t start_pos,
            const ClientOptions& options, QueryScratch* scratch);
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
  /// to the network's node count up front; a record whose id is at or
  /// past it (a misparse of a segment with zeroed holes) is skipped.
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
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_CLIENT_RUN_H_
