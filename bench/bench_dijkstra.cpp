// Microbenchmark for the CSR + ShortestPathEngine refactor: single-source,
// multi-source, and metric-closure construction on Cogent- and Inet-scale
// topologies, against a faithful copy of the pre-refactor implementation
// (per-call allocation, vector<vector<Arc>> adjacency, std::priority_queue).
//
//   ./bench_dijkstra                      # all cases
//   ./bench_dijkstra --benchmark_filter=MetricClosure
//
// The acceptance bar for the refactor is >= 1.5x on metric-closure
// construction for a >= 1000-node topology (BM_MetricClosure_* / inet).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "sofe/graph/dijkstra.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/graph/shortest_path_engine.hpp"
#include "sofe/topology/topology.hpp"
#include "sofe/util/rng.hpp"

namespace {

using namespace sofe;
using graph::Cost;
using graph::Graph;
using graph::NodeId;
using graph::ShortestPathTree;

// ------------------------------------------------------------------ legacy --
// Pre-refactor Dijkstra, kept verbatim as the baseline under measurement:
// fresh dist/parent/heap allocations per call, adjacency via neighbors()
// with an Arc -> edges_ indirection per relaxation.

struct LegacyHeapItem {
  Cost dist;
  NodeId node;
  bool operator>(const LegacyHeapItem& o) const noexcept {
    if (dist != o.dist) return dist > o.dist;
    return node > o.node;
  }
};

ShortestPathTree legacy_dijkstra(const Graph& g, NodeId source) {
  const auto n = static_cast<std::size_t>(g.node_count());
  ShortestPathTree t;
  t.source = source;
  t.dist.assign(n, graph::kInfiniteCost);
  t.parent.assign(n, graph::kInvalidNode);
  t.parent_edge.assign(n, graph::kInvalidEdge);

  std::priority_queue<LegacyHeapItem, std::vector<LegacyHeapItem>, std::greater<>> heap;
  t.dist[static_cast<std::size_t>(source)] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > t.dist[static_cast<std::size_t>(u)]) continue;
    for (const graph::Arc& a : g.neighbors(u)) {
      const Cost nd = d + g.edge(a.edge).cost;
      auto& dv = t.dist[static_cast<std::size_t>(a.to)];
      if (nd < dv) {
        dv = nd;
        t.parent[static_cast<std::size_t>(a.to)] = u;
        t.parent_edge[static_cast<std::size_t>(a.to)] = a.edge;
        heap.push({nd, a.to});
      }
    }
  }
  return t;
}

graph::VoronoiPartition legacy_multi_source(const Graph& g, std::vector<NodeId> seeds) {
  const auto n = static_cast<std::size_t>(g.node_count());
  graph::VoronoiPartition p;
  p.dist.assign(n, graph::kInfiniteCost);
  p.owner.assign(n, graph::kInvalidNode);
  p.parent.assign(n, graph::kInvalidNode);
  p.parent_edge.assign(n, graph::kInvalidEdge);
  std::priority_queue<LegacyHeapItem, std::vector<LegacyHeapItem>, std::greater<>> heap;
  std::sort(seeds.begin(), seeds.end());
  for (NodeId s : seeds) {
    auto& d = p.dist[static_cast<std::size_t>(s)];
    if (d == 0.0) continue;
    d = 0.0;
    p.owner[static_cast<std::size_t>(s)] = s;
    heap.push({0.0, s});
  }
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > p.dist[static_cast<std::size_t>(u)]) continue;
    for (const graph::Arc& a : g.neighbors(u)) {
      const Cost nd = d + g.edge(a.edge).cost;
      auto& dv = p.dist[static_cast<std::size_t>(a.to)];
      if (nd < dv) {
        dv = nd;
        p.owner[static_cast<std::size_t>(a.to)] = p.owner[static_cast<std::size_t>(u)];
        p.parent[static_cast<std::size_t>(a.to)] = u;
        p.parent_edge[static_cast<std::size_t>(a.to)] = a.edge;
        heap.push({nd, a.to});
      }
    }
  }
  return p;
}

// ---------------------------------------------------------------- fixtures --

const Graph& inet_graph() {
  static const topology::Topology topo = topology::inet(5000, 10000, 2000, /*seed=*/7);
  return topo.g;
}

const Graph& cogent_graph() {
  static const topology::Topology topo = topology::cogent();
  return topo.g;
}

// A SOFDA-shaped closure workload on a >= 1000-node topology: hubs are the
// VMs (5 per data center, attached by zero-cost taps exactly as
// topology::make_problem and the online simulator attach them) plus the
// candidate sources.  This is the hub set every solver layer actually
// builds closures over; the tap-derivation path makes it one Dijkstra per
// distinct DC host instead of one per VM.
struct SofdaHubCase {
  Graph g;
  std::vector<NodeId> hubs;
};

const SofdaHubCase& inet_sofda_case() {
  static const SofdaHubCase c = [] {
    SofdaHubCase out;
    const topology::Topology topo = topology::inet(1000, 3000, 200, /*seed=*/9);
    out.g = topo.g;
    util::Rng rng(17);
    const auto dc_pick = rng.sample_without_replacement(topo.dc_nodes.size(), 20);
    for (std::size_t d : dc_pick) {
      for (int i = 0; i < 5; ++i) {  // vms_per_dc = 5, as in OnlineConfig
        const NodeId vm = out.g.add_node();
        out.g.add_edge(vm, topo.dc_nodes[d], 0.0);
        out.hubs.push_back(vm);
      }
    }
    const auto src_pick = rng.sample_without_replacement(
        static_cast<std::size_t>(topo.g.node_count()), 14);
    for (std::size_t s : src_pick) out.hubs.push_back(static_cast<NodeId>(s));
    return out;
  }();
  return c;
}

std::vector<NodeId> pick_hubs(const Graph& g, std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<NodeId> hubs;
  hubs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    hubs.push_back(static_cast<NodeId>(rng.index(static_cast<std::size_t>(g.node_count()))));
  }
  return hubs;
}

// -------------------------------------------------------------- benchmarks --

void BM_SingleSource_Legacy(benchmark::State& state, const Graph& g) {
  NodeId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy_dijkstra(g, s));
    s = (s + 1) % g.node_count();
  }
}

void BM_SingleSource_Engine(benchmark::State& state, const Graph& g) {
  graph::ShortestPathEngine engine(g);
  graph::ShortestPathTree tree;
  NodeId s = 0;
  for (auto _ : state) {
    engine.run_into(s, tree);
    benchmark::DoNotOptimize(tree);
    s = (s + 1) % g.node_count();
  }
}

void BM_MultiSource_Legacy(benchmark::State& state, const Graph& g) {
  const auto seeds = pick_hubs(g, 64, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy_multi_source(g, seeds));
  }
}

void BM_MultiSource_Engine(benchmark::State& state, const Graph& g) {
  const auto seeds = pick_hubs(g, 64, 11);
  graph::ShortestPathEngine engine(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_multi(seeds));
  }
}

void BM_MetricClosure_Legacy(benchmark::State& state, const Graph& g) {
  const auto hubs = pick_hubs(g, static_cast<std::size_t>(state.range(0)), 13);
  for (auto _ : state) {
    // The pre-refactor MetricClosure: one legacy Dijkstra per unique hub.
    std::vector<ShortestPathTree> trees;
    trees.reserve(hubs.size());
    std::vector<bool> seen(static_cast<std::size_t>(g.node_count()), false);
    for (NodeId h : hubs) {
      if (seen[static_cast<std::size_t>(h)]) continue;
      seen[static_cast<std::size_t>(h)] = true;
      trees.push_back(legacy_dijkstra(g, h));
    }
    benchmark::DoNotOptimize(trees);
  }
}

void BM_MetricClosure_Engine(benchmark::State& state, const Graph& g) {
  const auto hubs = pick_hubs(g, static_cast<std::size_t>(state.range(0)), 13);
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    graph::MetricClosure closure(g, hubs, threads);
    benchmark::DoNotOptimize(closure);
  }
}

void BM_MetricClosureSofda_Legacy(benchmark::State& state) {
  const SofdaHubCase& c = inet_sofda_case();
  for (auto _ : state) {
    // Pre-refactor behavior: one full Dijkstra per unique hub, taps or not.
    std::vector<ShortestPathTree> trees;
    trees.reserve(c.hubs.size());
    std::vector<bool> seen(static_cast<std::size_t>(c.g.node_count()), false);
    for (NodeId h : c.hubs) {
      if (seen[static_cast<std::size_t>(h)]) continue;
      seen[static_cast<std::size_t>(h)] = true;
      trees.push_back(legacy_dijkstra(c.g, h));
    }
    benchmark::DoNotOptimize(trees);
  }
}

void BM_MetricClosureSofda_Engine(benchmark::State& state) {
  const SofdaHubCase& c = inet_sofda_case();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    graph::MetricClosure closure(c.g, c.hubs, threads);
    benchmark::DoNotOptimize(closure);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Force fixture construction outside timing.
  (void)inet_graph();
  (void)cogent_graph();
  (void)inet_sofda_case();

  benchmark::RegisterBenchmark("BM_SingleSource_Legacy/inet5000",
                               [](benchmark::State& s) { BM_SingleSource_Legacy(s, inet_graph()); });
  benchmark::RegisterBenchmark("BM_SingleSource_Engine/inet5000",
                               [](benchmark::State& s) { BM_SingleSource_Engine(s, inet_graph()); });
  benchmark::RegisterBenchmark("BM_SingleSource_Legacy/cogent",
                               [](benchmark::State& s) { BM_SingleSource_Legacy(s, cogent_graph()); });
  benchmark::RegisterBenchmark("BM_SingleSource_Engine/cogent",
                               [](benchmark::State& s) { BM_SingleSource_Engine(s, cogent_graph()); });
  benchmark::RegisterBenchmark("BM_MultiSource_Legacy/inet5000x64",
                               [](benchmark::State& s) { BM_MultiSource_Legacy(s, inet_graph()); });
  benchmark::RegisterBenchmark("BM_MultiSource_Engine/inet5000x64",
                               [](benchmark::State& s) { BM_MultiSource_Engine(s, inet_graph()); });
  benchmark::RegisterBenchmark("BM_MetricClosure_Legacy/inet5000",
                               [](benchmark::State& s) { BM_MetricClosure_Legacy(s, inet_graph()); })
      ->Arg(64);
  benchmark::RegisterBenchmark(
      "BM_MetricClosure_Engine/inet5000",
      [](benchmark::State& s) { BM_MetricClosure_Engine(s, inet_graph()); })
      ->Args({64, 1})
      ->Args({64, 2})
      ->Args({64, 4});
  benchmark::RegisterBenchmark("BM_MetricClosureSofda_Legacy/inet1000_vmtaps",
                               [](benchmark::State& s) { BM_MetricClosureSofda_Legacy(s); });
  benchmark::RegisterBenchmark("BM_MetricClosureSofda_Engine/inet1000_vmtaps",
                               [](benchmark::State& s) { BM_MetricClosureSofda_Engine(s); })
      ->Arg(1)
      ->Arg(4);
  benchmark::RegisterBenchmark("BM_MetricClosure_Legacy/cogent",
                               [](benchmark::State& s) { BM_MetricClosure_Legacy(s, cogent_graph()); })
      ->Arg(40);
  benchmark::RegisterBenchmark(
      "BM_MetricClosure_Engine/cogent",
      [](benchmark::State& s) { BM_MetricClosure_Engine(s, cogent_graph()); })
      ->Args({40, 1});

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
