#include "sofe/kstroll/instance.hpp"

#include <algorithm>
#include <cassert>

namespace sofe::kstroll {

StrollInstance build_stroll_instance(const Graph& g, const MetricClosure& closure, NodeId s,
                                     const std::vector<NodeId>& vms, NodeId u,
                                     const std::vector<Cost>& node_cost, Cost source_setup) {
  assert(g.valid_node(s) && g.valid_node(u));
  assert(std::find(vms.begin(), vms.end(), u) != vms.end() && "last VM must be in the VM set");
  assert(u != s && "the last VM must differ from the source");
  (void)g;  // consulted by the asserts only; the closure carries the distances

  StrollInstance inst;
  inst.source = s;
  inst.last_vm = u;
  inst.nodes.push_back(s);
  for (NodeId v : vms) {
    if (v != s) inst.nodes.push_back(v);  // V = M ∪ {s}; dedupe s if s ∈ M
  }
  const std::size_t n = inst.nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (inst.nodes[i] == u) inst.last_index = i;
  }

  const Cost cu = node_cost[static_cast<std::size_t>(u)];
  auto setup = [&](NodeId v) { return node_cost[static_cast<std::size_t>(v)]; };

  inst.cost.assign(n * n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const NodeId v1 = inst.nodes[a];
      const NodeId v2 = inst.nodes[b];
      const Cost base = closure.distance(v1, v2);
      Cost share = 0.0;
      if (source_setup == 0.0) {
        // Main construction (Section IV).
        if (v1 == s) {
          share = (cu + setup(v2)) / 2.0;
        } else if (v2 == s) {
          share = (setup(v1) + cu) / 2.0;
        } else {
          share = (setup(v1) + setup(v2)) / 2.0;
        }
      } else {
        // Appendix D: the source cost c(s) is shared like the last VM's.
        const Cost cs = source_setup;
        const bool a_is_s = v1 == s, b_is_s = v2 == s;
        const bool a_is_u = v1 == u, b_is_u = v2 == u;
        if ((a_is_s && b_is_u) || (a_is_u && b_is_s)) {
          share = cs + cu;
        } else if (a_is_s) {
          share = (cs + cu + setup(v2)) / 2.0;
        } else if (b_is_s) {
          share = (setup(v1) + cs + cu) / 2.0;
        } else if (a_is_u) {
          share = (setup(v2) + cs + cu) / 2.0;
        } else if (b_is_u) {
          share = (setup(v1) + cs + cu) / 2.0;
        } else {
          share = (setup(v1) + setup(v2)) / 2.0;
        }
      }
      inst.cost[a * n + b] = inst.cost[b * n + a] = base + share;
    }
  }
  return inst;
}

}  // namespace sofe::kstroll
