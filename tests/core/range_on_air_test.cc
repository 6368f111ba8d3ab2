#include "core/range_on_air.h"

#include <gtest/gtest.h>

#include <set>

#include "algo/dijkstra.h"
#include "broadcast/channel.h"
#include "testing/test_graphs.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

/// Ground truth: radius-bounded Dijkstra on the full graph.
std::set<std::pair<graph::NodeId, graph::Dist>> TrueRange(
    const graph::Graph& g, graph::NodeId s, graph::Dist radius) {
  algo::SearchTree tree = algo::DijkstraAll(g, s);
  std::set<std::pair<graph::NodeId, graph::Dist>> out;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (tree.dist[v] <= radius) out.emplace(v, tree.dist[v]);
  }
  return out;
}

class RangeOnAirTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, broadcast::CycleEncoding>> {};

TEST_P(RangeOnAirTest, MatchesGroundTruthAcrossRadii) {
  auto [seed, encoding] = GetParam();
  graph::Graph g = SmallNetwork(400, 640, seed);
  auto eb = EbSystem::Build(g, 8, {.encoding = encoding}).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.0);

  algo::SearchTree probe = algo::DijkstraAll(g, 0);
  graph::Dist max_d = 0;
  for (graph::Dist d : probe.dist) max_d = std::max(max_d, d);

  for (double frac : {0.05, 0.2, 0.5}) {
    RangeQuery q;
    q.source = static_cast<graph::NodeId>(seed % g.num_nodes());
    q.source_coord = g.Coord(q.source);
    q.radius = static_cast<graph::Dist>(static_cast<double>(max_d) * frac);
    q.tune_phase = 0.3;
    RangeResult res = RunRangeQuery(*eb, channel, q);
    ASSERT_TRUE(res.metrics.ok);
    std::set<std::pair<graph::NodeId, graph::Dist>> got(res.nodes.begin(),
                                                        res.nodes.end());
    EXPECT_EQ(got, TrueRange(g, q.source, q.radius)) << "frac " << frac;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RangeOnAirTest,
    ::testing::Combine(::testing::Values(301u, 302u, 303u),
                       ::testing::Values(broadcast::CycleEncoding::kLegacy,
                                         broadcast::CycleEncoding::kCompact)));

TEST(RangeOnAirTest, ZeroRadiusReturnsOnlySource) {
  graph::Graph g = SmallNetwork(200, 320, 310);
  auto eb = EbSystem::Build(g, 8).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.0);
  RangeQuery q;
  q.source = 5;
  q.source_coord = g.Coord(5);
  q.radius = 0;
  RangeResult res = RunRangeQuery(*eb, channel, q);
  ASSERT_EQ(res.nodes.size(), 1u);
  EXPECT_EQ(res.nodes[0].first, 5u);
  EXPECT_EQ(res.nodes[0].second, 0u);
}

TEST(RangeOnAirTest, SmallRadiusReceivesFewRegions) {
  graph::Graph g = SmallNetwork(600, 960, 311);
  auto eb = EbSystem::Build(g, 16).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.0);
  RangeQuery q;
  q.source = 10;
  q.source_coord = g.Coord(10);
  q.radius = 1;  // essentially just the source
  RangeResult res = RunRangeQuery(*eb, channel, q);
  EXPECT_LT(res.metrics.regions_received, 16u);
}

TEST(RangeOnAirTest, ExactUnderPacketLoss) {
  graph::Graph g = SmallNetwork(300, 480, 312);
  auto eb = EbSystem::Build(g, 8).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.05, 313);
  ClientOptions opts;
  opts.max_repair_cycles = 32;
  RangeQuery q;
  q.source = 42;
  q.source_coord = g.Coord(42);
  algo::SearchTree probe = algo::DijkstraAll(g, 42);
  graph::Dist max_d = 0;
  for (graph::Dist d : probe.dist) max_d = std::max(max_d, d);
  q.radius = max_d / 4;
  RangeResult res = RunRangeQuery(*eb, channel, q, opts);
  ASSERT_TRUE(res.metrics.ok);
  std::set<std::pair<graph::NodeId, graph::Dist>> got(res.nodes.begin(),
                                                      res.nodes.end());
  EXPECT_EQ(got, TrueRange(g, q.source, q.radius));
}

TEST(RangeOnAirTest, ResultsSortedByDistance) {
  graph::Graph g = SmallNetwork(300, 480, 314);
  auto eb = EbSystem::Build(g, 8).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.0);
  RangeQuery q;
  q.source = 1;
  q.source_coord = g.Coord(1);
  q.radius = 50000;
  RangeResult res = RunRangeQuery(*eb, channel, q);
  for (size_t i = 1; i < res.nodes.size(); ++i) {
    EXPECT_LE(res.nodes[i - 1].second, res.nodes[i].second);
  }
}

}  // namespace
}  // namespace airindex::core
