// Recorded-digest golden test of the SPQ, AF and LD server builds: FNV-1a
// digests of each system's broadcast cycle, legacy and compact, built cold
// (BuildSystem) and through a registry, compared against constants
// recorded from the builds that materialised a SearchTree per source (and,
// for SPQ, sorted every node by distance to colour it). It pins the aired
// bytes across a change of build implementation, as
// core.precompute_golden_test does for NR and EB.
//
// The constants must never be edited to make a change pass: a mismatch
// means a published cycle moved.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/systems.h"
#include "graph/graph.h"
#include "testing/metrics_digest.h"
#include "testing/test_graphs.h"

namespace airindex::core {
namespace {

using testing_support::DigestOf;
using testing_support::Hex;

struct CycleCase {
  const char* method;
  broadcast::CycleEncoding encoding;
  const char* generated_2000;
  const char* germany_03;
};

// Default SystemParams: AF over 16 kd regions, LD with 4 landmarks.
const CycleCase kCycleCases[] = {
    {"SPQ", broadcast::CycleEncoding::kLegacy, "0x18cb935d54836f2e",
     "0x518b1a8288d40fcc"},
    {"AF", broadcast::CycleEncoding::kLegacy, "0x3d41417c07fd8b1d",
     "0x627b40e7c5bc0857"},
    {"LD", broadcast::CycleEncoding::kLegacy, "0xc47c781f7748bc0d",
     "0x20670007721b07f4"},
    {"SPQ", broadcast::CycleEncoding::kCompact, "0x18e4657ccaa9f6e1",
     "0x8fe90aa38cb76781"},
    {"AF", broadcast::CycleEncoding::kCompact, "0xe2278c727133c2fc",
     "0x275586709a7a1e46"},
    {"LD", broadcast::CycleEncoding::kCompact, "0xd1617d01faba7c1e",
     "0x2a39401a6bef88fd"},
};

void ExpectCycles(const graph::Graph& g, const char* CycleCase::*expected) {
  SystemRegistry registry;
  for (const CycleCase& c : kCycleCases) {
    SystemParams params;
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

TEST(BuildGoldenTest, CyclesGenerated2000) {
  ExpectCycles(testing_support::Generated2000(), &CycleCase::generated_2000);
}

TEST(BuildGoldenTest, CyclesGermany03) {
  ExpectCycles(testing_support::Germany(0.3), &CycleCase::germany_03);
}

// The hand-built graph's zero-weight arcs tie children with their parents
// on distance. The build that sorted nodes by distance could colour such a
// child before its parent, leaving it uncoloured (25 of the 246 reachable
// pairs); these two constants, unlike the ones above, were recorded after
// the settle-order colouring fixed that.
TEST(BuildGoldenTest, SpqHandBuiltZeroWeight) {
  const graph::Graph g = testing_support::HandBuiltZeroWeight();
  const struct {
    broadcast::CycleEncoding encoding;
    const char* digest;
  } cases[] = {{broadcast::CycleEncoding::kLegacy, "0x40a4fb0e531666b8"},
               {broadcast::CycleEncoding::kCompact, "0x9e390a9b7bbed1c0"}};
  SystemRegistry registry;
  for (const auto& c : cases) {
    SystemParams params;
    params.build.encoding = c.encoding;
    auto cold = BuildSystem(g, "SPQ", params);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(Hex(DigestOf((*cold)->cycle())), c.digest);
    auto cached = registry.Get(g, "SPQ", params);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(Hex(DigestOf((*cached)->cycle())), c.digest);
  }
}

}  // namespace
}  // namespace airindex::core
