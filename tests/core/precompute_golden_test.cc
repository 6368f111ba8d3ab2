// Recorded-digest golden test of the EB/NR server build: the border
// pre-computation's four derived arrays (min_rr, max_rr, traversed,
// cross_border) and the NR and EB broadcast cycles built from them, legacy
// and compact, hashed and compared against constants recorded from the
// per-target parent-chain walk the shortest-path-tree sweep replaced.
// precompute_parallel_test only compares builds of one implementation with
// each other; this test pins the output across a change of implementation.
//
// The constants must never be edited to make a change pass: a mismatch
// means the precompute or a published cycle moved.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/border_precompute.h"
#include "core/systems.h"
#include "graph/catalog.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "partition/kd_tree.h"
#include "testing/metrics_digest.h"

namespace airindex::core {
namespace {

using testing_support::Hex;
using testing_support::MetricsDigest;

template <typename T>
void AddArray(MetricsDigest* d, const std::vector<T>& values) {
  d->Add(static_cast<uint64_t>(values.size()));
  for (T v : values) d->Add(static_cast<uint64_t>(v));
}

uint64_t DigestOf(const BorderPrecompute& pre) {
  MetricsDigest d;
  d.Add(static_cast<uint64_t>(pre.num_regions));
  AddArray(&d, pre.min_rr);
  AddArray(&d, pre.max_rr);
  AddArray(&d, pre.traversed);
  AddArray(&d, pre.cross_border);
  return d.value();
}

uint64_t DigestOf(const broadcast::BroadcastCycle& cycle) {
  MetricsDigest d;
  d.Add(static_cast<uint64_t>(cycle.num_segments()));
  for (size_t i = 0; i < cycle.num_segments(); ++i) {
    const broadcast::Segment& seg = cycle.segment(i);
    d.Add(static_cast<uint64_t>(seg.type));
    d.Add(static_cast<uint64_t>(seg.id));
    d.Add(static_cast<uint64_t>(seg.is_index));
    d.Add(std::string_view(reinterpret_cast<const char*>(seg.payload.data()),
                           seg.payload.size()));
  }
  return d.value();
}

graph::Graph Generated2000() {
  graph::GenSpec spec;
  spec.num_nodes = 2000;
  spec.seed = 21;
  return graph::GenerateRoadNetwork(spec).value();
}

graph::Graph Germany(double scale) {
  return graph::MakeNetwork(graph::FindNetwork("Germany").value(), scale)
      .value();
}

BorderPrecompute KdPrecompute(const graph::Graph& g, uint32_t regions) {
  auto kd = partition::KdTreePartitioner::Build(g, regions).value();
  return ComputeBorderPrecompute(g, kd.Partition(g)).value();
}

/// A 4x4 grid split into four 2x2 quadrant regions, with a zero-weight arc
/// pair (ties between equal-length border paths), a one-way arc, and a
/// three-node component no grid node can reach or be reached from — its
/// nodes are border nodes of two regions whose searches reach nothing else.
struct HandBuilt {
  graph::Graph g;
  partition::Partitioning part;
};

HandBuilt MakeHandBuilt() {
  graph::GraphBuilder b;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      b.AddNode({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  auto id = [](int x, int y) { return static_cast<graph::NodeId>(y * 4 + x); };
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const graph::Weight w = static_cast<graph::Weight>(1 + (x * 3 + y) % 4);
      if (x + 1 < 4) b.AddBidirectional(id(x, y), id(x + 1, y), w);
      if (y + 1 < 4) b.AddBidirectional(id(x, y), id(x, y + 1), w + 1);
    }
  }
  b.AddBidirectional(id(1, 1), id(2, 2), 0);  // zero-weight diagonal
  b.AddArc(id(0, 3), id(3, 0), 2);            // one-way shortcut
  const graph::NodeId i0 = b.AddNode({10.0, 10.0});
  const graph::NodeId i1 = b.AddNode({11.0, 10.0});
  const graph::NodeId i2 = b.AddNode({11.0, 11.0});
  b.AddBidirectional(i0, i1, 3);
  b.AddBidirectional(i1, i2, 0);

  HandBuilt out;
  out.g = std::move(b).Build().value();
  std::vector<graph::RegionId> labels(out.g.num_nodes());
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      labels[id(x, y)] = static_cast<graph::RegionId>((y / 2) * 2 + x / 2);
    }
  }
  labels[i0] = 1;
  labels[i1] = 3;
  labels[i2] = 3;
  out.part = partition::MakePartitioning(std::move(labels), 4);
  return out;
}

TEST(PrecomputeGoldenTest, Generated2000Regions8) {
  const graph::Graph g = Generated2000();
  EXPECT_EQ(Hex(DigestOf(KdPrecompute(g, 8))), "0x908fec824cf63376");
}

TEST(PrecomputeGoldenTest, Germany03Regions32) {
  const graph::Graph g = Germany(0.3);
  EXPECT_EQ(Hex(DigestOf(KdPrecompute(g, 32))), "0x9241c2a40083c208");
}

TEST(PrecomputeGoldenTest, Germany03Regions128TwoMaskWords) {
  const graph::Graph g = Germany(0.3);
  const BorderPrecompute pre = KdPrecompute(g, 128);
  ASSERT_EQ(pre.words_per_pair(), 2u);
  EXPECT_EQ(Hex(DigestOf(pre)), "0x8bbec76ad3547160");
}

TEST(PrecomputeGoldenTest, HandBuiltZeroWeightAndUnreachable) {
  const HandBuilt hb = MakeHandBuilt();
  const BorderPrecompute pre =
      ComputeBorderPrecompute(hb.g, hb.part, /*num_threads=*/1).value();
  EXPECT_EQ(Hex(DigestOf(pre)), "0x72122e94a7a5a452");
}

struct CycleCase {
  const char* method;
  broadcast::CycleEncoding encoding;
  const char* generated_2000_r8;
  const char* germany_03_r32;
};

// NR and EB cycles, built cold (BuildSystem) and through a registry; both
// paths must air the same bytes.
const CycleCase kCycleCases[] = {
    {"NR", broadcast::CycleEncoding::kLegacy, "0xfedf8eb1e4154d4a",
     "0x986ec0144986f97b"},
    {"EB", broadcast::CycleEncoding::kLegacy, "0x6883cc30ef44b7b0",
     "0x64404810df3ba6b4"},
    {"NR", broadcast::CycleEncoding::kCompact, "0x16b892c67cf27405",
     "0xd17b6f0a6366148e"},
    {"EB", broadcast::CycleEncoding::kCompact, "0x613ad160365d3c3b",
     "0xbc41f2d7c405823b"},
};

void ExpectCycles(const graph::Graph& g, uint32_t regions,
                  const char* CycleCase::*expected) {
  SystemRegistry registry;
  for (const CycleCase& c : kCycleCases) {
    SystemParams params;
    params.nr_regions = regions;
    params.eb_regions = regions;
    params.build.encoding = c.encoding;
    auto cold = BuildSystem(g, c.method, params);
    ASSERT_TRUE(cold.ok()) << c.method << ": " << cold.status().ToString();
    EXPECT_EQ(Hex(DigestOf((*cold)->cycle())), c.*expected)
        << c.method << " encoding " << static_cast<int>(c.encoding);
    auto cached = registry.Get(g, c.method, params);
    ASSERT_TRUE(cached.ok()) << c.method;
    EXPECT_EQ(Hex(DigestOf((*cached)->cycle())), c.*expected)
        << c.method << " (registry) encoding "
        << static_cast<int>(c.encoding);
  }
}

TEST(PrecomputeGoldenTest, CyclesGenerated2000Regions8) {
  ExpectCycles(Generated2000(), 8, &CycleCase::generated_2000_r8);
}

TEST(PrecomputeGoldenTest, CyclesGermany03Regions32) {
  ExpectCycles(Germany(0.3), 32, &CycleCase::germany_03_r32);
}

}  // namespace
}  // namespace airindex::core
