#include "core/client_run.h"

#include "core/decoded_slot_cache.h"

namespace airindex::core {

ClientRun::ClientRun(const broadcast::BroadcastChannel& channel,
                     uint64_t start_pos, const ClientOptions& options,
                     QueryScratch* scratch)
    : memory(options.heap_bytes),
      session(&channel, start_pos),
      scratch_(scratch != nullptr ? scratch : &local_.emplace()) {
  scratch_->BeginQuery();
  scratch_->session.BeginQueryStats();
}

void ClientRun::IngestRecords(const broadcast::ReceivedSegment& seg,
                              broadcast::CycleEncoding encoding) {
  QueryScratch& s = *scratch_;
  PartialGraph& pg = s.partial_graph;
  const size_t before = pg.MemoryBytes();
  const bool valid = MemoValidate(s.decode_cache, seg, [&] {
    return broadcast::ValidateNodeRecords(seg.payload, encoding).ok();
  });
  if (valid) {
    broadcast::NodeRecordCursor cursor(seg.payload, encoding);
    while (cursor.Next(&s.record)) pg.AddRecord(s.record);
  }
  memory.Charge(pg.MemoryBytes() - before);
}

void ClientRun::IngestEdges(const broadcast::ReceivedSegment& seg,
                            broadcast::CycleEncoding encoding,
                            std::vector<graph::Point>& coords) {
  QueryScratch& s = *scratch_;
  const bool valid = MemoValidate(s.decode_cache, seg, [&] {
    return broadcast::ValidateNodeRecords(seg.payload, encoding).ok();
  });
  if (!valid) return;
  size_t added = 0;
  size_t record_count = 0;
  broadcast::NodeRecordCursor cursor(seg.payload, encoding);
  while (cursor.Next(&s.record)) {
    ++record_count;
    if (s.record.id >= coords.size()) coords.resize(s.record.id + 1);
    coords[s.record.id] = s.record.coord;
    for (const auto& arc : s.record.arcs) {
      s.edges.push_back({s.record.id, arc.to, arc.weight});
      ++added;
    }
  }
  memory.Charge(added * 12 + record_count * 20);
}

device::QueryMetrics ClientRun::Finish(graph::Dist distance, bool ok) {
  metrics.tuning_packets = session.tuned_packets();
  metrics.latency_packets = session.latency_packets();
  metrics.wait_packets = session.wait_packets();
  metrics.corrupted_packets = session.corrupted_packets();
  metrics.fec_recovered = session.fec_recovered();
  metrics.wait_slots = session.wait_slots();
  metrics.latency_slots = session.latency_slots();
  metrics.peak_memory_bytes = memory.peak();
  metrics.memory_exceeded = memory.exceeded();
  metrics.cpu_ms = cpu_ms;
  metrics.cache_hits = scratch_->session.query_hits();
  metrics.warm = metrics.cache_hits > 0;
  metrics.distance = distance;
  metrics.ok = ok;
  return metrics;
}

}  // namespace airindex::core
