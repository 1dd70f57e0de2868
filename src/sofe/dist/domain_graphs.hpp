#pragma once
// Per-domain subgraph materialization shared by the distributed components
// (Section VI).
//
// The sharded closure views a partition the way its controllers do: each
// controller owns the induced subgraph over its domain's members, with edge
// ids mapped both ways so global `EdgeCostDelta` batches can be routed to
// the owning domain and local shortest-path trees can be reported back in
// global edge ids.  DomainGraphs builds that view once — one pass over the
// global edge list.

#include <vector>

#include "sofe/dist/partition.hpp"
#include "sofe/graph/graph.hpp"

namespace sofe::dist {

struct DomainGraphs {
  struct Domain {
    // The domain's induced subgraph over local member indices (the graph a
    // controller actually owns); arc costs copied from the global graph,
    // edges in global insertion order so local CSR arc order mirrors the
    // global one restricted to intra-domain arcs.
    Graph subgraph;
    // Local edge id -> global edge id.
    std::vector<EdgeId> edge_global;
  };

  std::vector<int> local_index;   // node -> index within its domain's members
  std::vector<EdgeId> edge_local; // global edge id -> local id (kInvalidEdge for cross links)
  std::vector<Domain> domains;

  DomainGraphs() = default;
  DomainGraphs(const Graph& g, const Partition& part);

  int local(NodeId v) const { return local_index[static_cast<std::size_t>(v)]; }
};

}  // namespace sofe::dist
