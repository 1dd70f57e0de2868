// SOFDA (Algorithm 2) tests: feasibility across instance shapes, multi-tree
// advantage (the paper's Fig. 1 motivation), the 3ρST envelope against the
// exact solver, the Lemma-2 Steiner-certificate bound, Procedure 4's three
// conflict cases on instances that reach them, and recorded digests of the
// forests and stats SOFDA produces on fixed instances.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "sofe/core/pricing.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/core/sofda_ss.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/exact/solver.hpp"
#include "sofe/topology/topology.hpp"
#include "sofe/util/rng.hpp"

namespace sofe::core {
namespace {

Problem random_problem(std::uint64_t seed, int n, int m, int srcs, int dests, int chain) {
  util::Rng rng(seed);
  Problem p;
  p.network = Graph(n);
  for (NodeId v = 1; v < n; ++v) {
    p.network.add_edge(v, static_cast<NodeId>(rng.index(static_cast<std::size_t>(v))),
                       rng.uniform(0.5, 4.0));
  }
  for (int e = 0; e < 2 * n; ++e) {
    const NodeId u = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    const NodeId v = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (u != v && p.network.find_edge(u, v) == graph::kInvalidEdge) {
      p.network.add_edge(u, v, rng.uniform(0.5, 4.0));
    }
  }
  p.node_cost.assign(static_cast<std::size_t>(n), 0.0);
  p.is_vm.assign(static_cast<std::size_t>(n), 0);
  const auto picks = rng.sample_without_replacement(static_cast<std::size_t>(n),
                                                    static_cast<std::size_t>(m + srcs + dests));
  int k = 0;
  for (int i = 0; i < m; ++i, ++k) {
    const NodeId v = static_cast<NodeId>(picks[static_cast<std::size_t>(k)]);
    p.is_vm[static_cast<std::size_t>(v)] = 1;
    p.node_cost[static_cast<std::size_t>(v)] = rng.uniform(0.5, 5.0);
  }
  for (int i = 0; i < srcs; ++i, ++k) {
    p.sources.push_back(static_cast<NodeId>(picks[static_cast<std::size_t>(k)]));
  }
  for (int i = 0; i < dests; ++i, ++k) {
    p.destinations.push_back(static_cast<NodeId>(picks[static_cast<std::size_t>(k)]));
  }
  p.chain_length = chain;
  return p;
}

TEST(Sofda, TwoIslandsNeedTwoTrees) {
  // Two well-separated clusters, one source+VMs+destination in each; a
  // single tree would pay the expensive inter-cluster bridge twice.
  Problem p;
  p.network = Graph(10);
  // Cluster A: 0(src) -1- 1(vm) -1- 2(vm) -1- 3(dst), chord 0-3.
  p.network.add_edge(0, 1, 1.0);
  p.network.add_edge(1, 2, 1.0);
  p.network.add_edge(2, 3, 1.0);
  p.network.add_edge(0, 3, 1.5);
  // Cluster B mirrors: 5(src) - 6(vm) - 7(vm) - 8(dst), chord 5-8.
  p.network.add_edge(5, 6, 1.0);
  p.network.add_edge(6, 7, 1.0);
  p.network.add_edge(7, 8, 1.0);
  p.network.add_edge(5, 8, 1.5);
  // Expensive bridge.
  p.network.add_edge(3, 5, 50.0);
  p.network.add_edge(4, 0, 1.0);  // spare switches to keep ids dense
  p.network.add_edge(9, 8, 1.0);
  p.node_cost = {0, 1, 1, 0, 0, 0, 1, 1, 0, 0};
  p.is_vm = {0, 1, 1, 0, 0, 0, 1, 1, 0, 0};
  p.sources = {0, 5};
  p.destinations = {3, 8};
  p.chain_length = 2;

  SofdaStats stats;
  const auto f = sofda(p, {}, &stats);
  ASSERT_FALSE(f.empty());
  EXPECT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  EXPECT_EQ(f.used_sources().size(), 2u) << "SOFDA should build two trees";
  EXPECT_LT(total_cost(p, f), 20.0) << "must avoid the 50-cost bridge";
  EXPECT_EQ(stats.deployed_chains, 2);
}

TEST(Sofda, SingleSourceMatchesReasonableCost) {
  Problem p = random_problem(42, 16, 6, 1, 3, 2);
  const auto f = sofda(p);
  if (f.empty()) GTEST_SKIP();
  EXPECT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  const auto fss = sofda_ss(p, p.sources.front());
  ASSERT_FALSE(fss.empty());
  // Same problem, two valid algorithms; both within 4x of each other.
  EXPECT_LT(total_cost(p, f), 4.0 * total_cost(p, fss) + 1e-9);
}

TEST(Sofda, EmptyDestinations) {
  Problem p = random_problem(7, 12, 4, 2, 1, 2);
  p.destinations.clear();
  EXPECT_TRUE(sofda(p).empty());
}

TEST(Sofda, ChainLengthZeroIsPureMulticast) {
  Problem p = random_problem(8, 14, 4, 2, 4, 2);
  p.chain_length = 0;
  const auto f = sofda(p);
  ASSERT_FALSE(f.empty());
  EXPECT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  EXPECT_DOUBLE_EQ(setup_cost(p, f), 0.0);
}

TEST(Sofda, StatsArePopulated) {
  Problem p = random_problem(11, 18, 6, 3, 4, 2);
  SofdaStats stats;
  const auto f = sofda(p, {}, &stats);
  if (f.empty()) GTEST_SKIP();
  EXPECT_GT(stats.candidate_chains, 0);
  EXPECT_GT(stats.deployed_chains, 0);
  EXPECT_GT(stats.steiner_tree_cost, 0.0);
  EXPECT_EQ(stats.rehomed_destinations, 0);
}

class SofdaFeasibility : public ::testing::TestWithParam<int> {};

TEST_P(SofdaFeasibility, AlwaysFeasibleOnRandomInstances) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng shape(seed * 31337);
  const int n = shape.uniform_int(12, 40);
  const int m = shape.uniform_int(3, 8);
  const int srcs = shape.uniform_int(1, 4);
  const int dests = shape.uniform_int(1, 6);
  const int chain = shape.uniform_int(1, std::min(3, m));
  Problem p = random_problem(seed * 997 + 3, n, m, srcs, dests, chain);
  SofdaStats stats;
  const auto f = sofda(p, {}, &stats);
  if (f.empty()) GTEST_SKIP() << "infeasible instance";
  EXPECT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  EXPECT_EQ(stats.conflicts.dropped, 0) << "conflict resolution should never drop";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SofdaFeasibility, ::testing::Range(1, 41));

class SofdaEnvelope : public ::testing::TestWithParam<int> {};

TEST_P(SofdaEnvelope, WithinSixTimesOptimal) {
  // Theorem 3 with ρST = 2: cost(F) <= 6·OPT.  Empirically ~1.0-1.3x.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Problem p = random_problem(seed * 733 + 1, 14, 5, 2, 3, 2);
  SofdaStats stats;
  const auto f = sofda(p, {}, &stats);
  if (f.empty()) GTEST_SKIP();
  ASSERT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  const auto exact = exact::solve_exact(p);
  ASSERT_TRUE(exact.optimal);
  EXPECT_GE(total_cost(p, f) + 1e-9, exact.cost);
  EXPECT_LE(total_cost(p, f), 6.0 * exact.cost + 1e-9);
  // Lemma 2 certificate: the Ĝ Steiner tree costs at most 3·ρST·OPT.
  EXPECT_LE(stats.steiner_tree_cost, 6.0 * exact.cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SofdaEnvelope, ::testing::Range(1, 21));

/// Two sources at opposite ends of a line of three VMs, one destination
/// off each end VM.  SOFDA serves both destinations from one chain, so no
/// VNF conflict arises (Procedure4Cases covers conflicts).
Problem two_sided_sources_problem() {
  Problem p;
  p.network = Graph(8);
  p.network.add_edge(0, 2, 1.0);
  p.network.add_edge(2, 3, 1.0);
  p.network.add_edge(3, 4, 1.0);
  p.network.add_edge(4, 1, 1.0);
  p.network.add_edge(2, 5, 1.0);   // dst A off VM 2
  p.network.add_edge(4, 6, 1.0);   // dst B off VM 4
  p.network.add_edge(3, 7, 4.0);   // spare
  p.node_cost = {0, 0, 2, 2, 2, 0, 0, 0};
  p.is_vm = {0, 0, 1, 1, 1, 0, 0, 0};
  p.sources = {0, 1};
  p.destinations = {5, 6};
  p.chain_length = 2;
  return p;
}

TEST(Sofda, TwoSidedSourcesServedByOneChain) {
  const Problem p = two_sided_sources_problem();
  SofdaStats stats;
  const auto f = sofda(p, {}, &stats);
  ASSERT_FALSE(f.empty());
  EXPECT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  EXPECT_EQ(stats.deployed_chains, 1);
  EXPECT_EQ(stats.conflicts.total_resolved(), 0);
  EXPECT_EQ(stats.rehomed_destinations, 0);
}

/// FNV-1a over the bytes of each value fed to it.
class Fnv1a {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Every walk's destination, source, nodes and vnf_pos, then the stats
/// (the Steiner cost by its bits).
void add_forest(Fnv1a& h, const ServiceForest& f, const SofdaStats& st) {
  h.add(f.walks.size());
  for (const ChainWalk& w : f.walks) {
    h.add(w.destination);
    h.add(w.source);
    h.add(w.nodes.size());
    for (NodeId v : w.nodes) h.add(v);
    h.add(w.vnf_pos.size());
    for (std::size_t pos : w.vnf_pos) h.add(pos);
  }
  h.add(st.deployed_chains);
  h.add(st.candidate_chains);
  h.add(st.conflicts.case1);
  h.add(st.conflicts.case2);
  h.add(st.conflicts.case3);
  h.add(st.conflicts.requeued);
  h.add(st.conflicts.dropped);
  h.add(st.rehomed_destinations);
  h.add(st.steiner_tree_cost);
}

/// `islands` clusters of about n / islands nodes (a random tree plus as
/// many random chords as nodes) joined in a row by single costly bridges,
/// each holding one source and its share of the VMs and destinations, so
/// that SOFDA's forests split into several trees.
Problem islands_problem(std::uint64_t seed, int n, int m, int islands, int dests, int chain) {
  util::Rng rng(seed);
  Problem p;
  p.network = Graph(n);
  p.node_cost.assign(static_cast<std::size_t>(n), 0.0);
  p.is_vm.assign(static_cast<std::size_t>(n), 0);
  const int size = n / islands;
  for (int b = 0; b < islands; ++b) {
    const NodeId lo = b * size;
    const NodeId hi = b + 1 == islands ? n : lo + size;
    const auto span = static_cast<std::size_t>(hi - lo);
    for (NodeId v = lo + 1; v < hi; ++v) {
      p.network.add_edge(v, lo + static_cast<NodeId>(rng.index(static_cast<std::size_t>(v - lo))),
                         rng.uniform(0.5, 4.0));
    }
    for (std::size_t e = 0; e < span; ++e) {
      const NodeId u = lo + static_cast<NodeId>(rng.index(span));
      const NodeId v = lo + static_cast<NodeId>(rng.index(span));
      if (u != v && p.network.find_edge(u, v) == graph::kInvalidEdge) {
        p.network.add_edge(u, v, rng.uniform(0.5, 4.0));
      }
    }
    if (b > 0) p.network.add_edge(lo - 1, lo, rng.uniform(6.0, 12.0));
    const int vms = m / islands;
    const int ds = dests / islands;
    const auto picks = rng.sample_without_replacement(span, static_cast<std::size_t>(vms + 1 + ds));
    std::size_t k = 0;
    for (int i = 0; i < vms; ++i, ++k) {
      const auto v = static_cast<std::size_t>(lo) + picks[k];
      p.is_vm[v] = 1;
      p.node_cost[v] = rng.uniform(0.5, 5.0);
    }
    p.sources.push_back(lo + static_cast<NodeId>(picks[k++]));
    for (int i = 0; i < ds; ++i, ++k) p.destinations.push_back(lo + static_cast<NodeId>(picks[k]));
  }
  p.chain_length = chain;
  return p;
}

/// Rounds every link and setup cost up to a whole number: equal-cost paths
/// and chains everywhere, so tie-breaks — and with them the numbering of
/// Ĝ — decide the forest.
void integral_costs(Problem& p) {
  for (EdgeId e = 0; e < p.network.edge_count(); ++e) {
    p.network.set_edge_cost(e, std::ceil(p.network.edge(e).cost));
  }
  for (Cost& c : p.node_cost) c = std::ceil(c);
}

/// Multi-source instances with |C| = 1, 2, 3 on SoftLayer-sized graphs (27
/// access nodes + 8 VMs) and 200-node graphs: random ones with real costs,
/// island-shaped ones with whole-number costs; then the two-sided-sources
/// instance.
std::vector<Problem> digest_instances() {
  std::vector<Problem> out;
  for (int i = 0; i < 12; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    const int chain = 1 + i % 3;
    const int extra = i % 4 / 2;  // one more source
    const bool islands = i % 2 == 1;
    const auto make = islands ? islands_problem : random_problem;
    Problem small = make(9000 + seed, 35, 8, 2 + extra, 6, chain);
    Problem big = make(9100 + seed, 200, 20, 3 + extra, 12, chain);
    if (islands) {
      integral_costs(small);
      integral_costs(big);
    }
    out.push_back(std::move(small));
    out.push_back(std::move(big));
  }
  out.push_back(two_sided_sources_problem());
  return out;
}

// Pins SOFDA's output bitwise, under the default Mehlhorn heuristic and
// under KMB: a change to how the auxiliary graph Ĝ is numbered (duplicate
// order, virtual-edge ids) or how its tree is read back can move Steiner
// tie-breaks and forests without breaking feasibility, which every other
// test here would accept.  Recorded once; a change that must stay bitwise
// neutral may not move it.
TEST(Sofda, ForestDigestsPinned) {
  Fnv1a h;
  int feasible = 0;
  int multi_tree = 0;
  for (const steiner::Algorithm algo : {steiner::Algorithm::kMehlhorn, steiner::Algorithm::kKmb}) {
    AlgoOptions opt;
    opt.steiner = algo;
    for (const Problem& p : digest_instances()) {
      SofdaStats stats;
      const ServiceForest f = sofda(p, opt, &stats);
      if (!f.empty()) {
        ++feasible;
        EXPECT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
      }
      if (stats.deployed_chains >= 2) ++multi_tree;
      add_forest(h, f, stats);
    }
  }
  EXPECT_EQ(feasible, 50);
  EXPECT_GE(multi_tree, 12);  // the digest covers forests, not just trees
  EXPECT_EQ(h.value(), 0x90b0c9f5d76b076aULL);
}

// Procedure 4 where it fires: SOFDA on SoftLayer instances of the paper's
// set-up at |C| = 3 (topology::make_problem).  Seeds 5048, 5005 and 5062
// deploy chains whose VNFs conflict and reach cases 1, 2 and 3; 5062 also
// requeues a committed chain.  Each forest must stay valid and within
// Theorem 3's 3ρST·OPT (6·OPT under Mehlhorn) of the optimum the exact
// solver proves; the digest pins the forests and stats, recorded once.
TEST(Sofda, Procedure4Cases) {
  struct Case {
    std::uint64_t seed;
    int ConflictStats::*count;
    const char* name;
  };
  const Case cases[] = {{5048, &ConflictStats::case1, "case 1"},
                        {5005, &ConflictStats::case2, "case 2"},
                        {5062, &ConflictStats::case3, "case 3"}};
  Fnv1a h;
  for (const Case& c : cases) {
    topology::ProblemConfig cfg;
    cfg.chain_length = 3;
    cfg.seed = c.seed;
    const Problem p = topology::make_problem(topology::softlayer(), cfg);
    SofdaStats stats;
    const ServiceForest f = sofda(p, {}, &stats);
    ASSERT_FALSE(f.empty()) << "seed " << c.seed;
    EXPECT_GE(stats.conflicts.*c.count, 1) << "seed " << c.seed << " no longer reaches " << c.name;
    if (c.seed == 5062) {
      EXPECT_GE(stats.conflicts.requeued, 1);
    }
    const ValidationReport v = validate(p, f);
    EXPECT_TRUE(v.ok) << "seed " << c.seed << ": " << v.summary();

    const auto exact = exact::solve_exact(p);
    ASSERT_TRUE(exact.optimal) << "seed " << c.seed;
    const Cost cost = total_cost(p, f);
    EXPECT_GE(cost + 1e-9, exact.cost) << "seed " << c.seed;
    EXPECT_LE(cost, 6.0 * exact.cost + 1e-9) << "seed " << c.seed << ": 3·ρST bound violated";
    add_forest(h, f, stats);
  }
  EXPECT_EQ(h.value(), 0x360c072fee409877ULL);
}

// Both candidate feeds solve the same Ĝ: the span overload over a pricing
// session's view into its table (the cached solves) and the value overload
// over price_candidate_chains (from-scratch pricing, the multi-controller
// merge) give the same forest and stats as sofda() itself.
TEST(Sofda, ViewAndValueCandidatesSolveAlike) {
  for (const Problem& p : digest_instances()) {
    std::vector<NodeId> hubs = p.vms();
    hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
    const graph::MetricClosure closure(p.network, hubs);
    PricingSession session;
    session.refresh(p, closure, p.sources, ClosureUpdate::rebuilt(), {});
    const std::vector<const ChainPlan*> view = session.chains(p.sources);
    const std::vector<PricedChain> values = price_candidate_chains(p, closure, p.sources);

    SofdaStats view_stats;
    SofdaStats value_stats;
    SofdaStats sofda_stats;
    Fnv1a from_view;
    Fnv1a from_values;
    Fnv1a from_sofda;
    add_forest(from_view, sofda_from_candidates(p, closure, view, {}, &view_stats), view_stats);
    add_forest(from_values, sofda_from_candidates(p, closure, values, {}, &value_stats),
               value_stats);
    add_forest(from_sofda, sofda(p, {}, &sofda_stats), sofda_stats);
    EXPECT_EQ(from_view.value(), from_values.value());
    EXPECT_EQ(from_view.value(), from_sofda.value());
  }
}

TEST(Sofda, DeterministicAcrossRuns) {
  Problem p = random_problem(99, 20, 6, 3, 4, 2);
  const auto f1 = sofda(p);
  const auto f2 = sofda(p);
  ASSERT_EQ(f1.walks.size(), f2.walks.size());
  EXPECT_DOUBLE_EQ(total_cost(p, f1), total_cost(p, f2));
}

TEST(Sofda, MoreSourcesNeverHurtMuch) {
  // Adding sources enlarges the solution space; SOFDA's result should not
  // get significantly worse (exact monotonicity is not guaranteed for an
  // approximation, so allow a small tolerance).
  Problem p = random_problem(123, 24, 6, 1, 4, 2);
  const auto f1 = sofda(p);
  if (f1.empty()) GTEST_SKIP();
  Problem p2 = p;
  for (NodeId v = 0; v < p.network.node_count(); ++v) {
    if (!p.is_vm[static_cast<std::size_t>(v)] && p2.sources.size() < 4 &&
        std::find(p.destinations.begin(), p.destinations.end(), v) == p.destinations.end() &&
        v != p.sources.front()) {
      p2.sources.push_back(v);
    }
  }
  const auto f2 = sofda(p2);
  ASSERT_FALSE(f2.empty());
  EXPECT_TRUE(is_feasible(p2, f2));
  EXPECT_LE(total_cost(p2, f2), 1.5 * total_cost(p, f1) + 1e-9);
}

}  // namespace
}  // namespace sofe::core
