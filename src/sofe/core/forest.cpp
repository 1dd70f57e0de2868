#include "sofe/core/forest.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "sofe/graph/metric_closure.hpp"

namespace sofe::core {

std::map<NodeId, int> ServiceForest::enabled_vms() const {
  std::map<NodeId, int> enabled;
  for (const ChainWalk& w : walks) {
    for (std::size_t j = 0; j < w.vnf_pos.size(); ++j) {
      enabled.emplace(w.nodes[w.vnf_pos[j]], static_cast<int>(j) + 1);
    }
  }
  return enabled;
}

std::set<StageEdge> ServiceForest::stage_edges() const {
  std::set<StageEdge> uses;
  for (const ChainWalk& w : walks) {
    int stage = 0;
    std::size_t next_vnf = 0;
    for (std::size_t i = 0; i + 1 < w.nodes.size(); ++i) {
      while (next_vnf < w.vnf_pos.size() && w.vnf_pos[next_vnf] <= i) {
        ++stage;
        ++next_vnf;
      }
      const auto [a, b] = Graph::edge_key(w.nodes[i], w.nodes[i + 1]);
      uses.insert(StageEdge{stage, a, b});
    }
  }
  return uses;
}

std::set<NodeId> ServiceForest::used_sources() const {
  std::set<NodeId> out;
  for (const ChainWalk& w : walks) out.insert(w.source);
  return out;
}

Cost setup_cost(const Problem& p, const ServiceForest& f) {
  Cost sum = 0.0;
  for (const auto& [vm, idx] : f.enabled_vms()) {
    (void)idx;
    sum += p.node_cost[static_cast<std::size_t>(vm)];
  }
  if (p.has_source_costs()) {
    for (NodeId s : f.used_sources()) sum += p.source_cost(s);
  }
  return sum;
}

Cost connection_cost(const Problem& p, const ServiceForest& f) {
  Cost sum = 0.0;
  for (const StageEdge& se : f.stage_edges()) {
    const EdgeId e = p.network.find_edge(se.u, se.v);
    assert(e != graph::kInvalidEdge && "walk uses a non-existent link");
    sum += p.network.edge(e).cost;
  }
  return sum;
}

Cost total_cost(const Problem& p, const ServiceForest& f) {
  return setup_cost(p, f) + connection_cost(p, f);
}

namespace {

/// Essential positions of a walk: its start, every VNF position, its end.
/// Consecutive pairs bound the pass-through segments.
std::vector<std::size_t> essential_positions(const ChainWalk& w) {
  std::vector<std::size_t> essential{0};
  essential.insert(essential.end(), w.vnf_pos.begin(), w.vnf_pos.end());
  if (essential.back() != w.nodes.size() - 1) essential.push_back(w.nodes.size() - 1);
  return essential;
}

}  // namespace

void shorten_pass_through(const Problem& p, const graph::MetricClosure& closure,
                          ServiceForest& f) {
  Cost best = total_cost(p, f);
  for (std::size_t wi = 0; wi < f.walks.size(); ++wi) {
    ChainWalk& w = f.walks[wi];
    std::vector<std::size_t> essential = essential_positions(w);
    for (std::size_t k = 0; k + 1 < essential.size(); ++k) {
      const std::size_t a = essential[k];
      const std::size_t b = essential[k + 1];
      if (b <= a + 1) continue;  // nothing between to shorten
      const auto sp = closure.tree(w.nodes[a]);
      if (!sp.reachable(w.nodes[b])) continue;
      const auto path = sp.path_to(w.nodes[b]);
      if (path.size() >= b - a + 1) continue;  // not shorter in hops; skip cheap

      // Tentatively splice and keep only if the forest cost does not grow
      // (shared stage-edge accounting can penalize rerouting off shared
      // segments).
      ChainWalk saved = w;
      std::vector<NodeId> nodes(w.nodes.begin(), w.nodes.begin() + static_cast<std::ptrdiff_t>(a));
      nodes.insert(nodes.end(), path.begin(), path.end());
      nodes.insert(nodes.end(), w.nodes.begin() + static_cast<std::ptrdiff_t>(b) + 1,
                   w.nodes.end());
      const std::ptrdiff_t shift =
          static_cast<std::ptrdiff_t>(a + path.size() - 1) - static_cast<std::ptrdiff_t>(b);
      ChainWalk candidate = w;
      candidate.nodes = std::move(nodes);
      for (std::size_t& pos : candidate.vnf_pos) {
        if (pos >= b) pos = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(pos) + shift);
      }
      w = std::move(candidate);
      const Cost now = total_cost(p, f);
      if (now <= best) {
        best = now;
        essential = essential_positions(w);  // re-derive after the splice
      } else {
        w = std::move(saved);
      }
    }
  }
}

void shorten_pass_through(const Problem& p, ServiceForest& f) {
  // A splice moves later essential positions but never changes which node
  // starts a segment or how many hops the untouched segments have, so the
  // starts the sweep will query are known up front.
  std::vector<NodeId> starts;
  for (const ChainWalk& w : f.walks) {
    const std::vector<std::size_t> essential = essential_positions(w);
    for (std::size_t k = 0; k + 1 < essential.size(); ++k) {
      if (essential[k + 1] > essential[k] + 1) starts.push_back(w.nodes[essential[k]]);
    }
  }
  if (starts.empty()) return;
  const graph::MetricClosure closure(p.network, sorted_unique(std::move(starts)));
  shorten_pass_through(p, closure, f);
}

std::string describe(const Problem& p, const ServiceForest& f) {
  std::ostringstream os;
  os << "ServiceForest: " << f.walks.size() << " walk(s), total cost "
     << total_cost(p, f) << " (setup " << setup_cost(p, f) << ", connection "
     << connection_cost(p, f) << ")\n";
  for (const ChainWalk& w : f.walks) {
    os << "  dest " << w.destination << " <- source " << w.source << ": ";
    std::size_t next_vnf = 0;
    for (std::size_t i = 0; i < w.nodes.size(); ++i) {
      if (i > 0) os << " -> ";
      os << w.nodes[i];
      if (next_vnf < w.vnf_pos.size() && w.vnf_pos[next_vnf] == i) {
        os << "[f" << next_vnf + 1 << "]";
        ++next_vnf;
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace sofe::core
