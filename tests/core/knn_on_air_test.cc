#include "core/knn_on_air.h"

#include <gtest/gtest.h>

#include "algo/dijkstra.h"
#include "broadcast/channel.h"
#include "common/rng.h"
#include "testing/test_graphs.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

std::vector<graph::NodeId> PickPois(const graph::Graph& g, double fraction,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::NodeId> pois;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (rng.NextBernoulli(fraction)) pois.push_back(v);
  }
  return pois;
}

std::vector<std::pair<graph::NodeId, graph::Dist>> TrueKnn(
    const graph::Graph& g, graph::NodeId s,
    const std::vector<graph::NodeId>& pois, uint32_t k) {
  algo::SearchTree tree = algo::DijkstraAll(g, s);
  std::vector<std::pair<graph::Dist, graph::NodeId>> found;
  for (graph::NodeId p : pois) {
    if (tree.dist[p] != graph::kInfDist) found.emplace_back(tree.dist[p], p);
  }
  std::sort(found.begin(), found.end());
  if (found.size() > k) found.resize(k);
  std::vector<std::pair<graph::NodeId, graph::Dist>> out;
  for (auto [d, v] : found) out.emplace_back(v, d);
  return out;
}

class KnnOnAirTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, uint32_t, broadcast::CycleEncoding>> {};

TEST_P(KnnOnAirTest, DistancesMatchGroundTruth) {
  auto [seed, k, encoding] = GetParam();
  graph::Graph g = SmallNetwork(400, 640, seed);
  auto eb = EbSystem::Build(g, 8, {.encoding = encoding}).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.0);
  auto pois = PickPois(g, 0.03, seed + 1);
  ASSERT_GE(pois.size(), k);

  for (graph::NodeId s : {graph::NodeId{3}, graph::NodeId{200},
                          graph::NodeId{399}}) {
    KnnQuery q;
    q.source = s;
    q.source_coord = g.Coord(s);
    q.k = k;
    q.tune_phase = 0.44;
    KnnResult res = RunKnnQuery(*eb, channel, q, pois);
    ASSERT_TRUE(res.metrics.ok);
    auto truth = TrueKnn(g, s, pois, k);
    ASSERT_EQ(res.neighbors.size(), truth.size()) << "s=" << s;
    // Distances must match exactly; node identity may differ on ties.
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(res.neighbors[i].second, truth[i].second)
          << "s=" << s << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, KnnOnAirTest,
    ::testing::Combine(::testing::Values(401u, 402u),
                       ::testing::Values(1u, 3u, 8u),
                       ::testing::Values(broadcast::CycleEncoding::kLegacy,
                                         broadcast::CycleEncoding::kCompact)));

TEST(KnnOnAirTest, KZeroIsEmpty) {
  graph::Graph g = SmallNetwork(200, 320, 410);
  auto eb = EbSystem::Build(g, 8).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.0);
  KnnQuery q;
  q.source = 1;
  q.source_coord = g.Coord(1);
  q.k = 0;
  KnnResult res = RunKnnQuery(*eb, channel, q, {5, 6, 7});
  EXPECT_TRUE(res.metrics.ok);
  EXPECT_TRUE(res.neighbors.empty());
  EXPECT_EQ(res.metrics.tuning_packets, 0u);
}

TEST(KnnOnAirTest, FewerPoisThanK) {
  graph::Graph g = SmallNetwork(200, 320, 411);
  auto eb = EbSystem::Build(g, 8).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.0);
  KnnQuery q;
  q.source = 10;
  q.source_coord = g.Coord(10);
  q.k = 5;
  KnnResult res = RunKnnQuery(*eb, channel, q, {42, 77});
  ASSERT_TRUE(res.metrics.ok);
  EXPECT_EQ(res.neighbors.size(), 2u);
}

TEST(KnnOnAirTest, NearbyPoiNeedsFewRegions) {
  graph::Graph g = SmallNetwork(600, 960, 412);
  auto eb = EbSystem::Build(g, 16).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.0);
  // POI adjacent to the source: the expansion should stop early.
  const graph::NodeId s = 100;
  const graph::NodeId poi = g.OutArcs(s)[0].to;
  KnnQuery q;
  q.source = s;
  q.source_coord = g.Coord(s);
  q.k = 1;
  KnnResult res = RunKnnQuery(*eb, channel, q, {poi});
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_LT(res.metrics.regions_received, 16u);
}

TEST(KnnOnAirTest, ExactUnderPacketLoss) {
  graph::Graph g = SmallNetwork(300, 480, 413);
  auto eb = EbSystem::Build(g, 8).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.05, 414);
  auto pois = PickPois(g, 0.05, 415);
  ClientOptions opts;
  opts.max_repair_cycles = 32;
  KnnQuery q;
  q.source = 50;
  q.source_coord = g.Coord(50);
  q.k = 4;
  KnnResult res = RunKnnQuery(*eb, channel, q, pois, opts);
  auto truth = TrueKnn(g, 50, pois, 4);
  ASSERT_EQ(res.neighbors.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(res.neighbors[i].second, truth[i].second);
  }
}

TEST(KnnOnAirTest, SourceIsPoi) {
  graph::Graph g = SmallNetwork(200, 320, 416);
  auto eb = EbSystem::Build(g, 8).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.0);
  KnnQuery q;
  q.source = 7;
  q.source_coord = g.Coord(7);
  q.k = 1;
  KnnResult res = RunKnnQuery(*eb, channel, q, {7});
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_EQ(res.neighbors[0].first, 7u);
  EXPECT_EQ(res.neighbors[0].second, 0u);
}

}  // namespace
}  // namespace airindex::core
