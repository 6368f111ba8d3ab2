#ifndef AIRINDEX_CORE_CLIENT_RUN_H_
#define AIRINDEX_CORE_CLIENT_RUN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/serialization.h"
#include "core/air_system.h"
#include "core/query_scratch.h"
#include "device/memory_tracker.h"
#include "device/metrics.h"
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
  /// charging 12 bytes per arc and 20 per record. `coords` grows to the
  /// highest received id + 1 when it is shorter; callers that know the
  /// node count size it up front.
  void IngestEdges(const broadcast::ReceivedSegment& seg,
                   broadcast::CycleEncoding encoding,
                   std::vector<graph::Point>& coords);

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
