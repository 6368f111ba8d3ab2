#include "algo/arc_flags.h"

#include <gtest/gtest.h>

#include "algo/dijkstra.h"
#include "partition/kd_tree.h"
#include "testing/test_graphs.h"

namespace airindex::algo {
namespace {

using testing_support::RandomPairs;
using testing_support::SmallNetwork;

struct BuiltIndex {
  graph::Graph g;
  ArcFlagIndex idx;
};

BuiltIndex Make(uint32_t nodes, uint32_t edges, uint64_t seed,
                uint32_t regions) {
  graph::Graph g = SmallNetwork(nodes, edges, seed);
  auto kd = partition::KdTreePartitioner::Build(g, regions).value();
  auto part = kd.Partition(g);
  auto idx = ArcFlagIndex::Build(g, part.node_region, regions).value();
  return {std::move(g), std::move(idx)};
}

TEST(ArcFlagTest, RejectsBadInput) {
  graph::Graph g = SmallNetwork(100, 160, 1);
  EXPECT_FALSE(ArcFlagIndex::Build(g, {}, 4).ok());
  std::vector<graph::RegionId> labels(g.num_nodes(), 9);
  EXPECT_FALSE(ArcFlagIndex::Build(g, labels, 4).ok());  // id out of range
}

TEST(ArcFlagTest, BytesPerArcIsTwoPerRegion) {
  auto built = Make(100, 160, 2, 4);
  EXPECT_EQ(built.idx.BytesPerArc(), 8u);
  auto built16 = Make(100, 160, 2, 16);
  EXPECT_EQ(built16.idx.BytesPerArc(), 32u);
}

TEST(ArcFlagTest, IntraRegionArcsAlwaysFlagged) {
  graph::Graph g = SmallNetwork(200, 320, 3);
  auto kd = partition::KdTreePartitioner::Build(g, 8).value();
  const auto part = kd.Partition(g);
  const auto idx = ArcFlagIndex::Build(g, part.node_region, 8).value();
  size_t arc_index = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& arc : g.OutArcs(v)) {
      EXPECT_TRUE(idx.ArcAllowed(arc_index, part.node_region[arc.to]));
      ++arc_index;
    }
  }
}

class ArcFlagCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArcFlagCorrectnessTest, QueryMatchesDijkstra) {
  auto built = Make(300, 480, GetParam(), 8);
  for (auto [s, t] : RandomPairs(built.g, 25, GetParam() + 5)) {
    Path flagged = built.idx.Query(built.g, s, t);
    Path truth = DijkstraPath(built.g, s, t);
    EXPECT_EQ(flagged.dist, truth.dist) << s << "->" << t;
    EXPECT_EQ(PathLength(built.g, flagged.nodes), flagged.dist);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArcFlagCorrectnessTest,
                         ::testing::Values(10, 11, 12, 13));

TEST(ArcFlagTest, PrunesSearchSpaceForCrossRegionQueries) {
  auto built = Make(800, 1280, 21, 16);
  size_t flagged_total = 0, plain_total = 0;
  for (auto [s, t] : RandomPairs(built.g, 30, 22)) {
    size_t settled = 0;
    built.idx.Query(built.g, s, t, &settled);
    flagged_total += settled;
    plain_total += DijkstraSearch(built.g, s, t, AllEdges{}).settled;
  }
  EXPECT_LT(flagged_total, plain_total);
}

}  // namespace
}  // namespace airindex::algo
