#include "core/spq_wire.h"

#include <gtest/gtest.h>

#include "algo/spq.h"
#include "common/rng.h"
#include "testing/test_graphs.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

/// Encodes the quadtrees of nodes [0, count) back to back, as one SPQ
/// chunk carries them.
std::vector<uint8_t> EncodeTrees(const algo::SpqIndex& idx, size_t count) {
  std::vector<uint8_t> buf;
  for (graph::NodeId v = 0; v < count; ++v) {
    EncodeSpqTree(idx.TreeOf(v), &buf);
  }
  return buf;
}

/// Reads `buf` tree by tree with both readers, the way the SPQ client
/// does (until the buffer ends or a tree is cut off), and requires them to
/// agree: the skim's cell count is the decoded tree's size, and both stop
/// at the same byte.
void ExpectSkimMatchesDecode(const std::vector<uint8_t>& buf) {
  size_t decode_pos = 0;
  size_t skim_pos = 0;
  while (decode_pos < buf.size()) {
    algo::SpqIndex::Tree tree;
    const bool decoded = DecodeSpqTree(buf, &decode_pos, &tree);
    const size_t cells = SkimSpqTree(buf, &skim_pos);
    ASSERT_EQ(skim_pos, decode_pos) << "buffer of " << buf.size();
    if (!decoded) {
      EXPECT_EQ(cells, 0u) << "buffer of " << buf.size();
      return;
    }
    EXPECT_EQ(cells, tree.nodes.size()) << "buffer of " << buf.size();
  }
}

TEST(SpqWireTest, RoundTripsAndSkimsEveryTree) {
  graph::Graph g = SmallNetwork(120, 200, 31);
  auto idx = algo::SpqIndex::Build(g);
  ASSERT_TRUE(idx.ok());
  const std::vector<uint8_t> buf = EncodeTrees(*idx, g.num_nodes());
  size_t decode_pos = 0;
  size_t skim_pos = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    algo::SpqIndex::Tree tree;
    ASSERT_TRUE(DecodeSpqTree(buf, &decode_pos, &tree));
    const auto& built = idx->TreeOf(v).nodes;
    ASSERT_EQ(tree.nodes.size(), built.size()) << "node " << v;
    for (size_t c = 0; c < built.size(); ++c) {
      EXPECT_EQ(tree.nodes[c].color, built[c].color) << v << "/" << c;
      for (int q = 0; q < 4; ++q) {
        EXPECT_EQ(tree.nodes[c].child[q], built[c].child[q]) << v << "/" << c;
      }
    }
    EXPECT_EQ(SkimSpqTree(buf, &skim_pos), built.size()) << "node " << v;
    EXPECT_EQ(skim_pos, decode_pos) << "node " << v;
  }
  EXPECT_EQ(decode_pos, buf.size());
}

TEST(SpqWireTest, SkimStopsWhereDecodeStopsAtEveryTruncation) {
  graph::Graph g = SmallNetwork(120, 200, 32);
  auto idx = algo::SpqIndex::Build(g);
  ASSERT_TRUE(idx.ok());
  const std::vector<uint8_t> buf = EncodeTrees(*idx, 12);
  for (size_t len = 0; len <= buf.size(); ++len) {
    ExpectSkimMatchesDecode(
        std::vector<uint8_t>(buf.begin(), buf.begin() + len));
  }
}

TEST(SpqWireTest, SkimMatchesDecodeOnGarbage) {
  // A chunk still incomplete after the repair budget reaches the client
  // with zeroed holes, or anything else a corrupt packet carried.
  ExpectSkimMatchesDecode(std::vector<uint8_t>(500, 0));
  Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    std::vector<uint8_t> buf(200);
    for (uint8_t& b : buf) {
      // Mostly leaves, so the random trees end before the buffer does.
      b = rng.NextBounded(4) == 0
              ? static_cast<uint8_t>(1 + rng.NextBounded(255))
              : 0;
    }
    ExpectSkimMatchesDecode(buf);
  }
}

}  // namespace
}  // namespace airindex::core
