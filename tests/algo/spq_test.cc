#include "algo/spq.h"

#include <gtest/gtest.h>

#include "algo/dijkstra.h"
#include "testing/test_graphs.h"

namespace airindex::algo {
namespace {

using testing_support::RandomPairs;
using testing_support::SmallNetwork;

TEST(SpqTest, RejectsTinyGraph) {
  graph::GraphBuilder b;
  b.AddNode({0, 0});
  auto g = std::move(b).Build().value();
  EXPECT_FALSE(SpqIndex::Build(g).ok());
}

class SpqCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpqCorrectnessTest, QueryMatchesDijkstra) {
  graph::Graph g = SmallNetwork(150, 240, GetParam());
  auto idx = SpqIndex::Build(g);
  ASSERT_TRUE(idx.ok());
  for (auto [s, t] : RandomPairs(g, 25, GetParam() + 1)) {
    graph::Path p = idx->Query(g, s, t);
    ASSERT_TRUE(p.found()) << s << "->" << t;
    EXPECT_EQ(p.dist, DijkstraPath(g, s, t).dist);
    EXPECT_EQ(PathLength(g, p.nodes), p.dist);
    EXPECT_EQ(p.nodes.front(), s);
    EXPECT_EQ(p.nodes.back(), t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpqCorrectnessTest,
                         ::testing::Values(61, 62, 63));

TEST(SpqTest, ColorIsValidArcOrdinal) {
  graph::Graph g = SmallNetwork(120, 200, 64);
  auto idx = SpqIndex::Build(g);
  ASSERT_TRUE(idx.ok());
  for (graph::NodeId v = 0; v < g.num_nodes(); v += 13) {
    for (graph::NodeId t = 0; t < g.num_nodes(); t += 29) {
      if (v == t) continue;
      const int32_t color = idx->ColorOf(v, g.Coord(t));
      ASSERT_GE(color, 0);
      ASSERT_LT(static_cast<size_t>(color), g.OutDegree(v));
    }
  }
}

TEST(SpqTest, FirstHopLiesOnShortestPath) {
  graph::Graph g = SmallNetwork(120, 200, 65);
  auto idx = SpqIndex::Build(g);
  ASSERT_TRUE(idx.ok());
  for (auto [s, t] : RandomPairs(g, 15, 66)) {
    const int32_t color = idx->ColorOf(s, g.Coord(t));
    ASSERT_GE(color, 0);
    const auto& arc = g.OutArcs(s)[color];
    const graph::Dist d_full = DijkstraPath(g, s, t).dist;
    const graph::Dist d_rest = DijkstraPath(g, arc.to, t).dist;
    EXPECT_EQ(d_full, d_rest + arc.weight);
  }
}

TEST(SpqTest, SizeOnlyBuildMatchesFullBuild) {
  graph::Graph g = SmallNetwork(100, 160, 67);
  auto idx = SpqIndex::Build(g);
  auto size_only = SpqIndex::BuildSizeOnly(g);
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(size_only.ok());
  EXPECT_EQ(idx->IndexBytes(), *size_only);
}

TEST(SpqTest, FromPartsReproducesQueries) {
  graph::Graph g = SmallNetwork(100, 160, 68);
  auto idx = SpqIndex::Build(g);
  ASSERT_TRUE(idx.ok());
  std::vector<SpqIndex::Tree> trees;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    trees.push_back(idx->TreeOf(v));
  }
  SpqIndex copy = SpqIndex::FromParts(idx->root_min_x(), idx->root_min_y(),
                                      idx->root_size(), std::move(trees));
  for (auto [s, t] : RandomPairs(g, 10, 69)) {
    EXPECT_EQ(copy.Query(g, s, t).dist, idx->Query(g, s, t).dist);
  }
}

TEST(SpqTest, QueryDistanceWalksFetchedTrees) {
  graph::Graph g = SmallNetwork(100, 160, 71);
  auto idx = SpqIndex::Build(g);
  ASSERT_TRUE(idx.ok());
  // Trees are handed out one at a time, as a client decoding them lazily
  // does; the walk must not read a tree after fetching the next.
  SpqIndex::Tree one;
  auto fetch = [&](graph::NodeId v) {
    one = idx->TreeOf(v);
    return &one;
  };
  auto none = [](graph::NodeId) -> const SpqIndex::Tree* { return nullptr; };
  for (auto [s, t] : RandomPairs(g, 10, 72)) {
    EXPECT_EQ(idx->QueryDistance(g, s, t, fetch), idx->Query(g, s, t).dist);
    if (s != t) {
      EXPECT_EQ(idx->QueryDistance(g, s, t, none), graph::kInfDist);
    }
  }
}

TEST(SpqTest, IndexIsLargerThanAdjacency) {
  graph::Graph g = SmallNetwork(300, 480, 70);
  auto idx = SpqIndex::Build(g);
  ASSERT_TRUE(idx.ok());
  // The paper's point: per-node quadtrees dwarf the network data.
  EXPECT_GT(idx->IndexBytes(), g.num_arcs() * 8);
}

}  // namespace
}  // namespace airindex::algo
