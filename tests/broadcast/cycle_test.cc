#include "broadcast/cycle.h"

#include <gtest/gtest.h>

namespace airindex::broadcast {
namespace {

Segment MakeSegment(SegmentType type, uint32_t id, size_t bytes,
                    bool is_index = false) {
  Segment s;
  s.type = type;
  s.id = id;
  s.is_index = is_index;
  s.payload.assign(bytes, static_cast<uint8_t>(id));
  return s;
}

TEST(CycleTest, PacketCountRoundsUp) {
  EXPECT_EQ(MakeSegment(SegmentType::kNetworkData, 0, 0).PacketCount(), 1u);
  EXPECT_EQ(MakeSegment(SegmentType::kNetworkData, 0, 1).PacketCount(), 1u);
  EXPECT_EQ(
      MakeSegment(SegmentType::kNetworkData, 0, kPayloadSize).PacketCount(),
      1u);
  EXPECT_EQ(MakeSegment(SegmentType::kNetworkData, 0, kPayloadSize + 1)
                .PacketCount(),
            2u);
}

TEST(CycleTest, EmptyBuilderFails) {
  CycleBuilder b;
  EXPECT_FALSE(std::move(b).Finalize(false).ok());
}

TEST(CycleTest, RequireIndexEnforced) {
  CycleBuilder b;
  b.Add(MakeSegment(SegmentType::kNetworkData, 0, 100));
  EXPECT_FALSE(std::move(b).Finalize(true).ok());
}

BroadcastCycle ThreeSegmentCycle() {
  CycleBuilder b;
  b.Add(MakeSegment(SegmentType::kGlobalIndex, 0, 200, /*is_index=*/true));
  b.Add(MakeSegment(SegmentType::kNetworkData, 1, 500));
  b.Add(MakeSegment(SegmentType::kNetworkData, 2, 50));
  return std::move(b).Finalize().value();
}

TEST(CycleTest, LayoutPositionsAreCumulative) {
  BroadcastCycle c = ThreeSegmentCycle();
  EXPECT_EQ(c.num_segments(), 3u);
  EXPECT_EQ(c.SegmentStart(0), 0u);
  EXPECT_EQ(c.SegmentStart(1), 2u);  // 200 bytes -> 2 packets
  EXPECT_EQ(c.SegmentStart(2), 7u);  // 500 bytes -> 5 packets
  EXPECT_EQ(c.total_packets(), 8u);
}

TEST(CycleTest, SegmentAtCoversEveryPosition) {
  BroadcastCycle c = ThreeSegmentCycle();
  EXPECT_EQ(c.SegmentAt(0), 0u);
  EXPECT_EQ(c.SegmentAt(1), 0u);
  EXPECT_EQ(c.SegmentAt(2), 1u);
  EXPECT_EQ(c.SegmentAt(6), 1u);
  EXPECT_EQ(c.SegmentAt(7), 2u);
}

TEST(CycleTest, PacketViewChunks) {
  BroadcastCycle c = ThreeSegmentCycle();
  PacketView first = c.PacketAt(2);
  EXPECT_EQ(first.segment_index, 1u);
  EXPECT_EQ(first.seq, 0u);
  EXPECT_EQ(first.segment_packets, 5u);
  EXPECT_EQ(first.chunk.size(), kPayloadSize);

  PacketView last = c.PacketAt(6);
  EXPECT_EQ(last.seq, 4u);
  EXPECT_EQ(last.chunk.size(), 500u - 4 * kPayloadSize);
}

TEST(CycleTest, NextIndexWrapsAround) {
  BroadcastCycle c = ThreeSegmentCycle();
  EXPECT_EQ(c.NextIndexStart(0), 0u);  // at the index start
  EXPECT_EQ(c.NextIndexStart(1), 0u);  // inside index -> wraps to next copy
  EXPECT_EQ(c.NextIndexStart(3), 0u);
  // Header offsets are relative and cyclic.
  PacketView view = c.PacketAt(5);
  EXPECT_EQ(view.next_index_offset, 3u);  // 5 -> 8 == 0 (mod 8)
}

TEST(CycleTest, MultipleIndexCopies) {
  CycleBuilder b;
  b.Add(MakeSegment(SegmentType::kGlobalIndex, 0, 100, true));
  b.Add(MakeSegment(SegmentType::kNetworkData, 1, 300));
  b.Add(MakeSegment(SegmentType::kGlobalIndex, 2, 100, true));
  b.Add(MakeSegment(SegmentType::kNetworkData, 3, 300));
  BroadcastCycle c = std::move(b).Finalize().value();
  // Positions: idx@0 (1 pkt), data@1..3, idx@4, data@5..7.
  EXPECT_EQ(c.NextIndexStart(1), 4u);
  EXPECT_EQ(c.NextIndexStart(4), 4u);
  EXPECT_EQ(c.NextIndexStart(5), 0u);
}

/// The linear scan NextIndexStart used before its per-segment table: from
/// the segment covering `pos`, walk the segments cyclically to the first
/// index segment.
uint32_t ScanNextIndexStart(const BroadcastCycle& c, uint32_t pos) {
  const size_t n = c.num_segments();
  const size_t si = c.SegmentAt(pos);
  if (c.segment(si).is_index && c.SegmentStart(si) == pos) return pos;
  for (size_t step = 1; step <= n; ++step) {
    const size_t i = (si + step) % n;
    if (c.segment(i).is_index) return c.SegmentStart(i);
  }
  return pos;
}

void ExpectTableMatchesScan(const BroadcastCycle& c) {
  for (uint32_t pos = 0; pos < c.total_packets(); ++pos) {
    const uint32_t expected = ScanNextIndexStart(c, pos);
    EXPECT_EQ(c.NextIndexStart(pos), expected) << "pos " << pos;
    const uint32_t offset = expected >= pos
                                ? expected - pos
                                : expected + c.total_packets() - pos;
    EXPECT_EQ(c.PacketAt(pos).next_index_offset, offset) << "pos " << pos;
  }
}

TEST(CycleTest, NextIndexTableMatchesScanWithoutIndex) {
  CycleBuilder b;
  b.Add(MakeSegment(SegmentType::kNetworkData, 0, 300));
  b.Add(MakeSegment(SegmentType::kNetworkData, 1, 0));
  b.Add(MakeSegment(SegmentType::kAuxData, 2, 250));
  BroadcastCycle c = std::move(b).Finalize(/*require_index=*/false).value();
  ExpectTableMatchesScan(c);
  EXPECT_EQ(c.NextIndexStart(4), 4u);  // nowhere to point: pos itself
}

TEST(CycleTest, NextIndexTableMatchesScanWithOneIndex) {
  // The lone index sits mid-cycle and spans several packets, so positions
  // inside it wrap all the way round to its own start.
  CycleBuilder b;
  b.Add(MakeSegment(SegmentType::kNetworkData, 0, 300));
  b.Add(MakeSegment(SegmentType::kGlobalIndex, 1, 350, true));
  b.Add(MakeSegment(SegmentType::kNetworkData, 2, 100));
  BroadcastCycle c = std::move(b).Finalize().value();
  ExpectTableMatchesScan(c);
  EXPECT_EQ(c.NextIndexStart(0), 3u);
  EXPECT_EQ(c.NextIndexStart(4), 3u);  // mid-index: next copy is itself
  EXPECT_EQ(c.NextIndexStart(6), 3u);  // past the last index: wraps
}

TEST(CycleTest, NextIndexTableMatchesScanWithSeveralIndexes) {
  CycleBuilder b;
  b.Add(MakeSegment(SegmentType::kLocalIndex, 0, 200, true));
  b.Add(MakeSegment(SegmentType::kNetworkData, 1, 300));
  b.Add(MakeSegment(SegmentType::kLocalIndex, 2, 150, true));
  b.Add(MakeSegment(SegmentType::kLocalIndex, 3, 10, true));
  b.Add(MakeSegment(SegmentType::kNetworkData, 4, 0));
  b.Add(MakeSegment(SegmentType::kNetworkData, 5, 500));
  b.Add(MakeSegment(SegmentType::kLocalIndex, 6, 120, true));
  b.Add(MakeSegment(SegmentType::kNetworkData, 7, 90));
  BroadcastCycle c = std::move(b).Finalize().value();
  ASSERT_GT(c.total_packets(), 10u);
  ExpectTableMatchesScan(c);
}

TEST(CycleTest, TotalPayloadBytes) {
  BroadcastCycle c = ThreeSegmentCycle();
  EXPECT_EQ(c.TotalPayloadBytes(), 750u);
}

}  // namespace
}  // namespace airindex::broadcast
