#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <thread>

#include "core/systems.h"
#include "testing/test_graphs.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

TEST(SystemRegistryTest, SecondGetReturnsTheCachedInstance) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  SystemParams params;
  params.nr_regions = 8;

  auto first = registry.Get(g, "NR", params);
  ASSERT_TRUE(first.ok());
  auto second = registry.Get(g, "NR", params);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SystemRegistryTest, DifferentKnobsAreDifferentEntries) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  SystemParams small;
  small.nr_regions = 4;
  SystemParams large;
  large.nr_regions = 8;

  auto a = registry.Get(g, "NR", small);
  auto b = registry.Get(g, "NR", large);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ(registry.size(), 2u);
}

TEST(SystemRegistryTest, IrrelevantKnobsShareOneEntry) {
  // An NR build does not depend on the ArcFlag region count; the cache key
  // must only include the method's own parameter.
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  SystemParams a;
  a.nr_regions = 8;
  a.arcflag_regions = 4;
  SystemParams b;
  b.nr_regions = 8;
  b.arcflag_regions = 64;

  auto first = registry.Get(g, "NR", a);
  auto second = registry.Get(g, "NR", b);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
}

TEST(SystemRegistryTest, GetAllFollowsTableOneOrder) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  SystemParams params;
  params.nr_regions = 8;
  params.eb_regions = 8;
  params.arcflag_regions = 8;
  params.landmarks = 3;

  auto systems = registry.GetAll(g, params);
  ASSERT_TRUE(systems.ok());
  ASSERT_EQ(systems->size(), 5u);
  const char* order[5] = {"DJ", "NR", "EB", "LD", "AF"};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*systems)[i]->name(), order[i]);
  }
  // A second GetAll is served entirely from cache.
  auto again = registry.GetAll(g, params);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*systems)[i].get(), (*again)[i].get());
  }
}

TEST(SystemRegistryTest, SharedInstancesSurviveClear) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  auto sys = registry.Get(g, "DJ").value();
  registry.Clear();
  EXPECT_EQ(registry.size(), 0u);
  // The caller's shared_ptr keeps the system alive past the cache drop.
  EXPECT_EQ(sys->name(), "DJ");
  EXPECT_GT(sys->cycle().total_packets(), 0u);
}

TEST(SystemRegistryTest, LruCapEvictsTheLeastRecentlyUsedEntry) {
  SystemRegistry registry;
  EXPECT_EQ(registry.capacity(), SystemRegistry::kDefaultCapacity);
  registry.set_capacity(2);
  graph::Graph g = SmallNetwork(300, 480, 21);

  auto dj = registry.Get(g, "DJ").value();
  auto nr = registry.Get(g, "NR").value();
  EXPECT_EQ(registry.size(), 2u);

  // Touch DJ so NR becomes the least recently used, then overflow.
  EXPECT_EQ(registry.Get(g, "DJ").value().get(), dj.get());
  auto eb = registry.Get(g, "EB").value();
  EXPECT_EQ(registry.size(), 2u);

  // DJ and EB survived; NR was evicted and rebuilds as a fresh instance
  // that answers like the original (the caller's shared_ptr kept the old
  // one alive through the eviction).
  EXPECT_EQ(registry.Get(g, "DJ").value().get(), dj.get());
  auto nr2 = registry.Get(g, "NR").value();
  EXPECT_NE(nr2.get(), nr.get());
  EXPECT_EQ(nr2->name(), nr->name());
  EXPECT_EQ(nr2->cycle().total_packets(), nr->cycle().total_packets());
}

TEST(SystemRegistryTest, ShrinkingCapacityEvictsImmediately) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  registry.Get(g, "DJ").value();
  registry.Get(g, "NR").value();
  auto eb = registry.Get(g, "EB").value();
  EXPECT_EQ(registry.size(), 3u);

  registry.set_capacity(1);
  EXPECT_EQ(registry.size(), 1u);
  // The survivor is the most recently used entry.
  EXPECT_EQ(registry.Get(g, "EB").value().get(), eb.get());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SystemRegistryTest, NrAndEbShareOnePrecompute) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  SystemParams params;
  params.nr_regions = 8;
  params.eb_regions = 8;

  auto nr = registry.Get(g, "NR", params).value();
  auto eb = registry.Get(g, "EB", params).value();
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.precompute_count(), 1u);
  // One pre-computation, so one wall time reported by both.
  EXPECT_EQ(nr->precompute_seconds(), eb->precompute_seconds());
  EXPECT_GT(nr->precompute_seconds(), 0.0);

  // The encoding and the precompute thread count change neither the
  // precompute nor its key.
  SystemParams other = params;
  other.build.encoding = broadcast::CycleEncoding::kCompact;
  other.build.precompute_threads = 2;
  auto eb_compact = registry.Get(g, "EB", other).value();
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.precompute_count(), 1u);
  EXPECT_EQ(eb_compact->precompute_seconds(), nr->precompute_seconds());
}

TEST(SystemRegistryTest, DifferentRegionCountsBuildTwoPrecomputes) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  SystemParams params;
  params.nr_regions = 8;
  params.eb_regions = 4;

  ASSERT_TRUE(registry.Get(g, "NR", params).ok());
  ASSERT_TRUE(registry.Get(g, "EB", params).ok());
  EXPECT_EQ(registry.precompute_count(), 2u);
}

TEST(SystemRegistryTest, EvictClearAndCapacityDropCachedPrecomputes) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  graph::Graph h = SmallNetwork(300, 480, 22);
  SystemParams params;
  params.nr_regions = 8;

  ASSERT_TRUE(registry.Get(g, "NR", params).ok());
  ASSERT_TRUE(registry.Get(h, "NR", params).ok());
  EXPECT_EQ(registry.precompute_count(), 2u);
  registry.Evict(g);
  EXPECT_EQ(registry.precompute_count(), 1u);
  EXPECT_EQ(registry.size(), 1u);
  registry.Clear();
  EXPECT_EQ(registry.precompute_count(), 0u);

  // The capacity cap bounds the cached pre-computations too.
  registry.set_capacity(1);
  SystemParams four = params;
  four.nr_regions = 4;
  ASSERT_TRUE(registry.Get(g, "NR", params).ok());
  ASSERT_TRUE(registry.Get(g, "NR", four).ok());
  EXPECT_EQ(registry.precompute_count(), 1u);
  EXPECT_EQ(registry.size(), 1u);
}

void ExpectSameCycle(const broadcast::BroadcastCycle& a,
                     const broadcast::BroadcastCycle& b,
                     std::string_view method) {
  ASSERT_EQ(a.num_segments(), b.num_segments()) << method;
  EXPECT_EQ(a.total_packets(), b.total_packets()) << method;
  for (size_t i = 0; i < a.num_segments(); ++i) {
    EXPECT_EQ(a.segment(i).type, b.segment(i).type) << method << " " << i;
    EXPECT_EQ(a.segment(i).id, b.segment(i).id) << method << " " << i;
    EXPECT_EQ(a.segment(i).is_index, b.segment(i).is_index)
        << method << " " << i;
    EXPECT_EQ(a.segment(i).payload, b.segment(i).payload)
        << method << " " << i;
  }
}

TEST(SystemRegistryTest, ConcurrentSharedBuildsMatchColdBuilds) {
  graph::Graph g = SmallNetwork(400, 640, 23);
  SystemParams params;
  params.nr_regions = 8;
  params.eb_regions = 8;

  for (int round = 0; round < 3; ++round) {
    SystemRegistry registry;
    std::shared_ptr<const AirSystem> got[2][2];
    auto worker = [&](int t) {
      // The two threads ask in opposite orders, so either may compute
      // the shared precompute (or both, when they race).
      const char* order[2] = {t == 0 ? "NR" : "EB", t == 0 ? "EB" : "NR"};
      for (int i = 0; i < 2; ++i) {
        got[t][i] = registry.Get(g, order[i], params).value();
      }
    };
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    a.join();
    b.join();
    EXPECT_EQ(got[0][0].get(), got[1][1].get());  // NR
    EXPECT_EQ(got[0][1].get(), got[1][0].get());  // EB
    for (const char* method : {"NR", "EB"}) {
      auto cold = BuildSystem(g, method, params).value();
      auto cached = registry.Get(g, method, params).value();
      ExpectSameCycle(cold->cycle(), cached->cycle(), method);
    }
  }
}

TEST(SystemRegistryTest, UnknownMethodIsAnError) {
  SystemRegistry registry;
  graph::Graph g = SmallNetwork(300, 480, 21);
  EXPECT_FALSE(registry.Get(g, "XX").ok());
}

TEST(SystemNamesTest, HeavyMethodsAreOptIn) {
  SystemParams params;
  EXPECT_EQ(SystemNames(params).size(), 5u);
  params.include_spq = true;
  params.include_hiti = true;
  auto names = SystemNames(params);
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[5], "SPQ");
  EXPECT_EQ(names[6], "HiTi");
}

}  // namespace
}  // namespace airindex::core
