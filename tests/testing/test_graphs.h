#ifndef AIRINDEX_TESTS_TESTING_TEST_GRAPHS_H_
#define AIRINDEX_TESTS_TESTING_TEST_GRAPHS_H_

#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/catalog.h"
#include "graph/generator.h"
#include "graph/graph.h"

namespace airindex::testing_support {

/// A small strongly-connected synthetic road network for tests.
inline graph::Graph SmallNetwork(uint32_t nodes = 400, uint32_t edges = 640,
                                 uint64_t seed = 1234) {
  graph::GeneratorOptions opts;
  opts.num_nodes = nodes;
  opts.num_edges = edges;
  opts.seed = seed;
  opts.extent = 10000.0;
  return graph::GenerateRoadNetwork(opts).value();
}

/// Random distinct (source, target) pairs.
inline std::vector<std::pair<graph::NodeId, graph::NodeId>> RandomPairs(
    const graph::Graph& g, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    auto s = static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
    auto t = static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

/// The 2000-node generated road network of the recorded-digest golden
/// tests.
inline graph::Graph Generated2000() {
  graph::GenSpec spec;
  spec.num_nodes = 2000;
  spec.seed = 21;
  return graph::GenerateRoadNetwork(spec).value();
}

/// The catalog's Germany network at `scale`.
inline graph::Graph Germany(double scale) {
  return graph::MakeNetwork(graph::FindNetwork("Germany").value(), scale)
      .value();
}

/// Node id of grid cell (x, y) in HandBuiltZeroWeight.
inline graph::NodeId HandBuiltGridId(int x, int y) {
  return static_cast<graph::NodeId>(y * 4 + x);
}

/// A hand-built 19-node graph of awkward cases: a 4x4 grid (nodes 0-15,
/// HandBuiltGridId) with a zero-weight arc pair (ties between equal-length
/// paths), a one-way arc, and a three-node component (nodes 16-18, joined
/// by a weight-3 and a zero-weight arc pair) that no grid node can reach
/// or be reached from.
inline graph::Graph HandBuiltZeroWeight() {
  graph::GraphBuilder b;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      b.AddNode({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  const auto id = HandBuiltGridId;
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
  return std::move(b).Build().value();
}

}  // namespace airindex::testing_support

#endif  // AIRINDEX_TESTS_TESTING_TEST_GRAPHS_H_
