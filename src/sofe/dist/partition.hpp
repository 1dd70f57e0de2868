#pragma once
// Domain partitioning for multi-controller embedding (Section VI).
//
// Each SDN controller administers one *domain*: a connected, nonempty set of
// nodes.  Domains jointly cover the network.  A node is a *border* node of
// its domain when at least one of its links crosses into another domain —
// border nodes are the only places where inter-domain traffic (and therefore
// inter-controller coordination) can happen, so the sharded closure and the
// distributed driver key all of their bookkeeping on them.

#include <vector>

#include "sofe/graph/graph.hpp"

namespace sofe::dist {

using graph::Cost;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// A k-domain partition of a connected graph.
struct Partition {
  int num_domains = 0;
  std::vector<int> domain_of;                // node -> domain id [0, k)
  std::vector<std::vector<NodeId>> members;  // domain -> ascending node list
  std::vector<std::vector<NodeId>> borders;  // domain -> ascending border list

  int domain(NodeId v) const { return domain_of[static_cast<std::size_t>(v)]; }
};

/// Partitions `g` into exactly `k` nonempty domains that cover every node
/// (k is clamped to [1, node_count]).  Seeds are placed by deterministic
/// farthest-first traversal (hop metric) and domains grow by synchronized
/// multi-source BFS, so on a connected graph each domain is a BFS tree and
/// therefore connected in its induced subgraph.  A disconnected graph still
/// yields a deterministic covering partition (each component is seeded
/// before any component gets a second seed; with k below the component
/// count, leftover components join existing domains round-robin and those
/// domains span components).
Partition partition_bfs(const Graph& g, int k);

}  // namespace sofe::dist
