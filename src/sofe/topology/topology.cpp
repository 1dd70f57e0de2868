#include "sofe/topology/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "sofe/costmodel/fortz_thorup.hpp"
#include "sofe/graph/dsu.hpp"
#include "sofe/graph/oracles.hpp"

namespace sofe::topology {

namespace {

struct City {
  const char* name;
  double x, y;  // abstract map coordinates (longitude/latitude-like)
  bool dc;
};

double dist(const City& a, const City& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Builds a connected geographic mesh: Euclidean MST + the shortest extra
/// links until `links` edges exist.  Deterministic.
///
/// Pairs are taken in (length, u, v) order, which is the stable order by
/// length because they are generated in (u, v) order.  No pair longer than
/// the MST's longest edge can join two components, so Kruskal runs on that
/// prefix only (one O(n^2) Prim pass finds the bound), and the longer pairs
/// are sorted only if the fill pass reaches them.  Building the Cogent mesh
/// is part of every online run's set-up.
Topology geographic_mesh(std::string name, const std::vector<City>& cities, int links) {
  const int n = static_cast<int>(cities.size());
  Topology t;
  t.name = std::move(name);
  t.g = Graph(n);
  for (NodeId v = 0; v < n; ++v) {
    if (cities[static_cast<std::size_t>(v)].dc) t.dc_nodes.push_back(v);
  }
  const auto length = [&cities](NodeId u, NodeId v) {  // u < v
    return dist(cities[static_cast<std::size_t>(u)], cities[static_cast<std::size_t>(v)]);
  };

  // Prim over the complete graph: the longest MST edge.  Every MST has the
  // same edge lengths, so it is also where Kruskal makes its last union.
  double longest = 0.0;
  {
    std::vector<NodeId> outside(static_cast<std::size_t>(n));
    std::iota(outside.begin(), outside.end(), NodeId{0});
    std::vector<double> reach(static_cast<std::size_t>(n), graph::kInfiniteCost);
    reach[0] = 0.0;
    while (!outside.empty()) {
      std::size_t next = 0;
      for (std::size_t k = 1; k < outside.size(); ++k) {
        if (reach[static_cast<std::size_t>(outside[k])] <
            reach[static_cast<std::size_t>(outside[next])]) {
          next = k;
        }
      }
      const NodeId u = outside[next];
      outside[next] = outside.back();
      outside.pop_back();
      longest = std::max(longest, reach[static_cast<std::size_t>(u)]);
      for (NodeId v : outside) {
        double& r = reach[static_cast<std::size_t>(v)];
        r = std::min(r, length(std::min(u, v), std::max(u, v)));
      }
    }
  }

  struct Cand {
    double d;
    NodeId u, v;
  };
  const auto before = [](const Cand& a, const Cand& b) {
    if (a.d != b.d) return a.d < b.d;
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::vector<Cand> cands;
  cands.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) cands.push_back({length(u, v), u, v});
  }
  const auto rest = std::partition(cands.begin(), cands.end(),
                                   [longest](const Cand& c) { return c.d <= longest; });
  std::sort(cands.begin(), rest, before);
  const auto prefix = static_cast<std::size_t>(rest - cands.begin());

  graph::DisjointSetUnion dsu(static_cast<std::size_t>(n));
  std::vector<char> in_mst(prefix, 0);
  // Kruskal pass for connectivity.
  for (std::size_t i = 0; i < prefix; ++i) {
    const Cand& c = cands[i];
    if (dsu.unite(static_cast<std::size_t>(c.u), static_cast<std::size_t>(c.v))) {
      t.g.add_edge(c.u, c.v, c.d);
      in_mst[i] = 1;
    }
  }
  // Fill in the shortest remaining pairs up to the link budget.
  for (std::size_t i = 0; i < cands.size() && t.g.edge_count() < links; ++i) {
    if (i == prefix) std::sort(rest, cands.end(), before);
    if (i < prefix && in_mst[i]) continue;
    t.g.add_edge(cands[i].u, cands[i].v, cands[i].d);
  }
  assert(t.g.edge_count() == links);
  assert(graph::is_connected(t.g));
  return t;
}

}  // namespace

Topology softlayer() {
  // 27 SoftLayer-era PoP/DC metros with abstract map coordinates (scaled
  // lon/lat); 17 of them host data centers — counts per the paper.
  static const std::vector<City> kCities = {
      {"Seattle", 2.0, 18.0, true},     {"SanJose", 1.0, 12.0, true},
      {"LosAngeles", 2.5, 9.0, false},  {"Denver", 9.0, 12.0, false},
      {"Dallas", 12.0, 7.0, true},      {"Houston", 12.5, 5.0, true},
      {"Chicago", 16.0, 14.0, true},    {"StLouis", 15.0, 11.0, false},
      {"Atlanta", 18.0, 7.5, true},     {"Miami", 20.5, 3.0, true},
      {"WashingtonDC", 20.5, 11.5, true}, {"NewYork", 21.5, 13.5, true},
      {"Boston", 22.5, 15.0, false},    {"Toronto", 18.5, 15.5, true},
      {"Montreal", 20.5, 17.0, false},  {"Mexico", 10.0, 1.0, false},
      {"London", 32.0, 18.0, true},     {"Amsterdam", 34.0, 19.0, true},
      {"Paris", 33.0, 16.5, true},      {"Frankfurt", 35.5, 17.0, false},
      {"Milan", 35.0, 14.5, true},      {"Singapore", 52.0, 2.0, true},
      {"HongKong", 54.0, 6.0, true},    {"Tokyo", 60.0, 11.0, true},
      {"Sydney", 62.0, -6.0, false},    {"Melbourne", 60.0, -8.0, false},
      {"SaoPaulo", 26.0, -6.0, false},
  };
  return geographic_mesh("SoftLayer", kCities, 49);
}

Topology cogent() {
  // 190 nodes across North America and Europe (Cogent's two footprints),
  // seeded deterministically; 40 DC metros.  Counts per the paper.
  util::Rng rng(0xC09E27);
  std::vector<City> cities;
  cities.reserve(190);
  // Two continental clusters roughly mirroring Cogent's map density:
  // 120 North-American nodes, 70 European nodes.
  for (int i = 0; i < 120; ++i) {
    cities.push_back(City{"na", rng.uniform(0.0, 26.0), rng.uniform(0.0, 16.0), false});
  }
  for (int i = 0; i < 70; ++i) {
    cities.push_back(City{"eu", rng.uniform(32.0, 46.0), rng.uniform(8.0, 20.0), false});
  }
  // 40 DCs: spread deterministically over both continents.
  util::Rng pick(0xD47ACE);
  const auto chosen = pick.sample_without_replacement(cities.size(), 40);
  for (std::size_t idx : chosen) cities[idx].dc = true;
  return geographic_mesh("Cogent", cities, 260);
}

Topology inet(int nodes, int links, int dcs, std::uint64_t seed) {
  assert(nodes >= 3 && links >= nodes - 1 && dcs <= nodes);
  util::Rng rng(seed ^ 0x1e37);
  Topology t;
  t.name = "Inet";
  t.g = Graph(nodes);

  // Preferential attachment on a small connected seed: heavy-tailed degrees
  // over a connected core, matching Inet's defining property at this scale.
  std::vector<NodeId> endpoint_pool;  // node repeated once per incident edge
  endpoint_pool.reserve(2 * static_cast<std::size_t>(links));
  // The duplicate check scans the lower-degree endpoint's adjacency: it
  // runs once per attachment attempt, most attempts draw a leaf, and
  // building an Inet-2000 core is part of every online run's set-up.
  auto link = [&](NodeId u, NodeId v) {
    if (u == v) return false;
    const auto [a, b] = t.g.degree(u) <= t.g.degree(v) ? std::pair{u, v} : std::pair{v, u};
    for (const graph::Arc& arc : t.g.neighbors(a)) {
      if (arc.to == b) return false;
    }
    // Link length: mild random transmission cost; refined by make_problem.
    t.g.add_edge(u, v, rng.uniform(1.0, 2.0));
    endpoint_pool.push_back(u);
    endpoint_pool.push_back(v);
    return true;
  };
  link(0, 1);
  link(1, 2);
  link(2, 0);
  for (NodeId v = 3; v < nodes; ++v) {
    // Attach each newcomer to one preferential endpoint.
    while (true) {
      const NodeId target = endpoint_pool[rng.index(endpoint_pool.size())];
      if (link(v, target)) break;
    }
  }
  // Remaining links: preferential pairs.
  int guard = links * 64;
  while (t.g.edge_count() < links && guard-- > 0) {
    const NodeId u = endpoint_pool[rng.index(endpoint_pool.size())];
    const NodeId v = endpoint_pool[rng.index(endpoint_pool.size())];
    link(u, v);
  }
  // Extremely unlikely fallback: fill with uniform random pairs.
  while (t.g.edge_count() < links) {
    link(static_cast<NodeId>(rng.index(static_cast<std::size_t>(nodes))),
         static_cast<NodeId>(rng.index(static_cast<std::size_t>(nodes))));
  }

  const auto chosen = rng.sample_without_replacement(static_cast<std::size_t>(nodes),
                                                     static_cast<std::size_t>(dcs));
  t.dc_nodes.assign(chosen.begin(), chosen.end());
  std::sort(t.dc_nodes.begin(), t.dc_nodes.end());
  return t;
}

Topology testbed14() {
  // Fig. 13: 14 nodes, 20 links.  The published figure labels nodes 0-13;
  // we use a two-tier layout (core ring + access spurs) with 20 links.
  Topology t;
  t.name = "Testbed";
  t.g = Graph(14);
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {0, 2},  {1, 2},  {1, 3},  {2, 4},  {3, 4},  {3, 5},
      {4, 6}, {5, 6},  {5, 7},  {6, 8},  {7, 8},  {7, 9},  {8, 10},
      {9, 11}, {10, 12}, {9, 10}, {11, 12}, {11, 13}, {12, 13},
  };
  for (const auto& [u, v] : edges) t.g.add_edge(u, v, 1.0);
  assert(t.g.edge_count() == 20);
  for (NodeId v = 0; v < 14; ++v) t.dc_nodes.push_back(v);  // any node may host a VNF
  return t;
}

Topology ring(int nodes) {
  Topology t;
  t.name = "Ring";
  t.g = Graph(nodes);
  for (NodeId v = 0; v < nodes; ++v) {
    t.g.add_edge(v, (v + 1) % nodes, 1.0);
    t.dc_nodes.push_back(v);
  }
  return t;
}

Topology grid(int rows, int cols) {
  Topology t;
  t.name = "Grid";
  t.g = Graph(rows * cols);
  auto id = [cols](int r, int c) { return static_cast<NodeId>(r * cols + c); };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) t.g.add_edge(id(r, c), id(r, c + 1), 1.0);
      if (r + 1 < rows) t.g.add_edge(id(r, c), id(r + 1, c), 1.0);
      t.dc_nodes.push_back(id(r, c));
    }
  }
  return t;
}

Topology random_geometric(int nodes, double radius, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<City> cities;
  cities.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    cities.push_back(City{"p", rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), true});
  }
  Topology t;
  t.name = "Geometric";
  t.g = Graph(nodes);
  for (NodeId u = 0; u < nodes; ++u) {
    t.dc_nodes.push_back(u);
    for (NodeId v = u + 1; v < nodes; ++v) {
      const double d = dist(cities[static_cast<std::size_t>(u)],
                            cities[static_cast<std::size_t>(v)]);
      if (d <= radius) t.g.add_edge(u, v, d);
    }
  }
  // Ensure connectivity by chaining components through nearest pairs.
  graph::DisjointSetUnion dsu(static_cast<std::size_t>(nodes));
  for (const auto& e : t.g.edges()) {
    dsu.unite(static_cast<std::size_t>(e.u), static_cast<std::size_t>(e.v));
  }
  for (NodeId v = 1; v < nodes; ++v) {
    if (!dsu.connected(0, static_cast<std::size_t>(v))) {
      t.g.add_edge(0, v, 1.0);
      dsu.unite(0, static_cast<std::size_t>(v));
    }
  }
  return t;
}

Problem make_problem(const Topology& topo, const ProblemConfig& cfg) {
  assert(cfg.num_vms >= 0 && !topo.dc_nodes.empty());
  util::Rng rng(cfg.seed ^ 0x50f);

  Problem p;
  p.network = topo.g;
  p.chain_length = cfg.chain_length;
  const NodeId n_access = topo.g.node_count();
  p.node_cost.assign(static_cast<std::size_t>(n_access), 0.0);
  p.is_vm.assign(static_cast<std::size_t>(n_access), 0);

  // Link costs: Fortz-Thorup of a random utilization in (0,1) (Section
  // VIII-A; capacity 100 Mb/s and demand 5 Mb/s give the same shape after
  // normalization because the cost function is homogeneous).
  if (cfg.randomize_link_usage) {
    for (graph::EdgeId e = 0; e < p.network.edge_count(); ++e) {
      const double usage = rng.uniform(0.01, 0.99);
      p.network.set_edge_cost(e, costmodel::fortz_thorup(usage, 1.0));
    }
  }

  // VMs: each is attached to a uniformly random DC by a zero-cost access
  // link; its setup cost follows the host-utilization model [48], scaled.
  for (int i = 0; i < cfg.num_vms; ++i) {
    const NodeId dc = topo.dc_nodes[rng.index(topo.dc_nodes.size())];
    const NodeId vm = p.network.add_node();
    p.network.add_edge(vm, dc, 0.0);
    const double host_util = rng.uniform(0.05, 0.95);
    p.node_cost.push_back(cfg.setup_scale * costmodel::fortz_thorup(host_util, 1.0));
    p.is_vm.push_back(1);
  }

  // Sources and destinations are drawn from two independent seeded
  // permutations of the access nodes ("chosen uniformly at random from the
  // nodes in the network"); a node may serve both roles, as in the paper —
  // SoftLayer's 27 nodes must fit |S| = 26 alongside |D| = 6.  Sweeping one
  // count at a fixed seed keeps the other set fixed and grows its own set
  // monotonically, which keeps parameter sweeps paired.
  assert(cfg.num_destinations <= n_access && cfg.num_sources <= n_access);
  util::Rng dest_rng(cfg.seed ^ 0xd15c0);
  util::Rng src_rng(cfg.seed * 0x9e3779b9ULL + 0x50face);
  std::vector<NodeId> dperm(static_cast<std::size_t>(n_access));
  for (NodeId v = 0; v < n_access; ++v) dperm[static_cast<std::size_t>(v)] = v;
  std::vector<NodeId> sperm = dperm;
  dest_rng.shuffle(dperm);
  src_rng.shuffle(sperm);
  for (int i = 0; i < cfg.num_destinations; ++i) {
    p.destinations.push_back(dperm[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < cfg.num_sources; ++i) {
    p.sources.push_back(sperm[static_cast<std::size_t>(i)]);
  }
  assert(p.well_formed());
  return p;
}

}  // namespace sofe::topology
