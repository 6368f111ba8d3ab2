#include "algo/dijkstra.h"
#include "core/full_cycle_system.h"

namespace airindex::core {
namespace {

/// DJ: the client searches the received network with plain Dijkstra.
struct DijkstraMethod {
  static constexpr std::string_view kName = "DJ";
  static constexpr bool kRebuildsGraph = false;

  bool RepairAux(const broadcast::ReceivedSegment&,
                 const ClientOptions&) const {
    return true;  // DJ airs no aux data
  }

  struct Query {
    Query(const DijkstraMethod&, ClientRun& run) : run(run) {}

    void OnAux(broadcast::ReceivedSegment&) {}

    FullCycleAnswer Search(const AirQuery& query) {
      QueryScratch& s = run.scratch();
      if (!s.partial_graph.Has(query.source) ||
          !s.partial_graph.Has(query.target)) {
        return {};  // an endpoint's record was lost for good
      }
      algo::DijkstraSearch(s.partial_graph, query.source, query.target,
                           KnownEdgeFilter{&s.partial_graph}, s.search);
      const graph::Dist dist = s.search.DistTo(query.target);
      return {dist, dist != graph::kInfDist};
    }

    ClientRun& run;
  };
};

}  // namespace

Result<std::unique_ptr<AirSystem>> BuildDijkstraOnAir(
    const graph::Graph& g, const BuildConfig& config) {
  return MakeFullCycleSystem(g, config, DijkstraMethod{}, {},
                             /*precompute_seconds=*/0.0);
}

}  // namespace airindex::core
