#include "core/client_run.h"

#include "algo/dijkstra.h"
#include "core/decoded_slot_cache.h"
#include "core/region_data.h"
#include "core/repair.h"

namespace airindex::core {

ClientRun::ClientRun(const broadcast::BroadcastChannel& channel,
                     uint64_t start_pos, size_t num_nodes,
                     const ClientOptions& options, QueryScratch* scratch)
    : memory(options.heap_bytes),
      session(&channel, start_pos),
      scratch_(scratch != nullptr ? scratch : &local_.emplace()),
      num_nodes_(num_nodes) {
  scratch_->BeginQuery(num_nodes);
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
    if (s.record.id >= num_nodes_) continue;
    ++record_count;
    coords[s.record.id] = s.record.coord;
    for (const auto& arc : s.record.arcs) {
      s.edges.push_back({s.record.id, arc.to, arc.weight});
      ++added;
    }
  }
  memory.Charge(added * 12 + record_count * 20);
}

std::optional<graph::Graph> ClientRun::RebuildGraph(
    std::vector<graph::Point>&& coords) {
  auto built = graph::Graph::Build(std::move(coords), scratch_->edges);
  if (!built.ok()) return std::nullopt;
  memory.Charge(built->MemoryBytes());
  return std::move(built).value();
}

bool ClientRun::IngestRegion(const broadcast::ReceivedSegment& seg,
                             broadcast::CycleEncoding encoding) {
  QueryScratch& s = *scratch_;
  const bool valid = MemoValidate(s.decode_cache, seg, [&] {
    return ValidateRegionData(seg.payload, encoding).ok();
  });
  if (!valid) return false;
  PartialGraph& pg = s.partial_graph;
  const size_t before = pg.MemoryBytes();
  auto cursor = RegionDataView(seg.payload, encoding).records();
  while (cursor.Next(&s.record)) pg.AddRecord(s.record);
  memory.Charge(pg.MemoryBytes() - before);
  return true;
}

bool ClientRun::IngestRegionPair(const broadcast::ReceivedSegment& cross,
                                 const broadcast::ReceivedSegment* local,
                                 broadcast::CycleEncoding encoding,
                                 SuperEdgeProcessor* collapse) {
  if (collapse == nullptr) {
    if (!IngestRegion(cross, encoding)) return false;
    if (local != nullptr) IngestRegion(*local, encoding);
    return true;
  }
  auto cross_data = DecodeRegionData(cross.payload, encoding);
  if (!cross_data.ok()) return false;
  RegionData region = std::move(cross_data).value();
  if (local != nullptr) {
    auto local_data = DecodeRegionData(local->payload, encoding);
    if (local_data.ok()) {
      for (auto& rec : local_data->records) {
        region.records.push_back(std::move(rec));
      }
    }
  }
  const size_t decoded =
      region.records.size() * 24 + region.border.size() * 4;
  const size_t overlay_before = collapse->MemoryBytes();
  memory.Charge(decoded);
  collapse->AddRegion(region);
  memory.Release(decoded);
  memory.Release(overlay_before);
  memory.Charge(collapse->MemoryBytes());
  return true;
}

graph::Dist ClientRun::SearchRegions(const AirQuery& query,
                                     const SuperEdgeProcessor* collapse) {
  device::Stopwatch sw;
  graph::Dist dist = graph::kInfDist;
  const PartialGraph& pg = scratch_->partial_graph;
  if (collapse != nullptr) {
    dist = collapse->Solve();
  } else if (pg.Has(query.source) && pg.Has(query.target)) {
    // An endpoint region lost for good leaves nothing to search.
    algo::DijkstraSearch(pg, query.source, query.target, KnownEdgeFilter{&pg},
                         scratch_->search);
    dist = scratch_->search.DistTo(query.target);
  }
  cpu_ms += sw.ElapsedMs();
  return dist;
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

void RegionFetch::FetchSegment(uint32_t start,
                               broadcast::ReceivedSegment* out) {
  SessionCache& cache = run_.scratch().session;
  if (cache_on_ && cache.Load(start, out)) {
    cache.CountHit();
    return;
  }
  broadcast::ReceiveSegmentAt(run_.session, start, out);
  if (cache_on_) cache.Store(start, *out);
}

void RegionFetch::Fetch(uint32_t cross_start,
                        std::optional<uint32_t> local_start) {
  SegmentArena& arena = run_.scratch().segments;
  Stashed region{arena.Acquire(), nullptr, cross_start, 0};
  FetchSegment(cross_start, region.cross);
  run_.memory.Charge(region.cross->payload.size());
  if (local_start.has_value()) {
    region.local = arena.Acquire();
    region.local_start = *local_start;
    FetchSegment(*local_start, region.local);
    run_.memory.Charge(region.local->payload.size());
  }
  if (region.cross->complete &&
      (region.local == nullptr || region.local->complete)) {
    Ingest(region);
  } else {
    stash_.push_back(region);
  }
}

void RegionFetch::Flush(int max_repair_cycles) {
  if (stash_.empty()) return;
  std::vector<PendingRepair> pending;
  for (const Stashed& st : stash_) {
    if (!st.cross->complete) pending.push_back({st.cross_start, st.cross});
    if (st.local != nullptr && !st.local->complete) {
      pending.push_back({st.local_start, st.local});
    }
  }
  RepairAllSegments(run_.session, pending, max_repair_cycles);
  SessionCache& cache = run_.scratch().session;
  for (const Stashed& st : stash_) {
    if (cache_on_) {
      // Store() keeps only segments the repairs completed.
      cache.Store(st.cross_start, *st.cross);
      if (st.local != nullptr) cache.Store(st.local_start, *st.local);
    }
    Ingest(st);
  }
  stash_.clear();
}

void RegionFetch::Ingest(const Stashed& region) {
  ingest_fn_(ingest_ctx_, *region.cross, region.local);
  SegmentArena& arena = run_.scratch().segments;
  arena.Recycle(region.cross);
  if (region.local != nullptr) arena.Recycle(region.local);
}

}  // namespace airindex::core
