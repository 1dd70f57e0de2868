// I/O tests: serialize/deserialize round trip, malformed-input rejection,
// and DOT export structure.

#include <gtest/gtest.h>

#include <climits>
#include <stdexcept>
#include <string>

#include "sofe/core/sofda.hpp"
#include "sofe/io/io.hpp"
#include "sofe/topology/topology.hpp"

namespace sofe::io {
namespace {

Problem sample() {
  topology::ProblemConfig cfg;
  cfg.num_vms = 6;
  cfg.num_sources = 3;
  cfg.num_destinations = 4;
  cfg.chain_length = 2;
  cfg.seed = 44;
  return topology::make_problem(topology::softlayer(), cfg);
}

TEST(Io, RoundTripPreservesEverything) {
  const Problem p = sample();
  const Problem q = deserialize(serialize(p));
  ASSERT_EQ(q.network.node_count(), p.network.node_count());
  ASSERT_EQ(q.network.edge_count(), p.network.edge_count());
  for (graph::EdgeId e = 0; e < p.network.edge_count(); ++e) {
    EXPECT_EQ(q.network.edge(e).u, p.network.edge(e).u);
    EXPECT_EQ(q.network.edge(e).v, p.network.edge(e).v);
    EXPECT_DOUBLE_EQ(q.network.edge(e).cost, p.network.edge(e).cost);
  }
  EXPECT_EQ(q.node_cost, p.node_cost);
  EXPECT_EQ(q.is_vm, p.is_vm);
  EXPECT_EQ(q.sources, p.sources);
  EXPECT_EQ(q.destinations, p.destinations);
  EXPECT_EQ(q.chain_length, p.chain_length);
}

TEST(Io, RoundTripWithSourceCosts) {
  Problem p = sample();
  p.source_setup_cost.assign(static_cast<std::size_t>(p.network.node_count()), 0.0);
  for (auto s : p.sources) p.source_setup_cost[static_cast<std::size_t>(s)] = 2.5;
  const Problem q = deserialize(serialize(p));
  ASSERT_TRUE(q.has_source_costs());
  for (auto s : p.sources) EXPECT_DOUBLE_EQ(q.source_cost(s), 2.5);
}

TEST(Io, RoundTripEquivalentSolverBehavior) {
  const Problem p = sample();
  const Problem q = deserialize(serialize(p));
  EXPECT_DOUBLE_EQ(core::total_cost(p, core::sofda(p)), core::total_cost(q, core::sofda(q)));
}

/// Every malformed text must throw the parser's own error naming `field`:
/// never a bare std::stoi/std::stod exception, an assert, or a silent
/// partial parse.
void expect_parse_error(const std::string& text, const std::string& field) {
  try {
    (void)deserialize(text);
    ADD_FAILURE() << "accepted malformed input:\n" << text;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "sofe-instance parse error: " + field) << text;
  }
}

TEST(Io, RejectsMalformedInput) {
  expect_parse_error("", "bad header");
  expect_parse_error("sofe-instance v2\n", "bad header");
  expect_parse_error("sofe-instance v1\nnodes -3\n", "nodes");
  // The node count sizes the graph before any edge is read, so a count
  // past the cap is refused up front instead of allocated.
  const auto sized = [](long long nodes) {
    return "sofe-instance v1\nnodes " + std::to_string(nodes) + "\nchain 1\nedges 0\n";
  };
  expect_parse_error(sized(kMaxInstanceNodes + 1LL), "nodes");
  expect_parse_error(sized(INT_MAX), "nodes");
  // A chain needs one distinct VM per VNF, so it can be no longer than the
  // node count (INT_MAX would also overflow chain_length + 1).
  const auto chained = [](long long chain) {
    return "sofe-instance v1\nnodes 4\nchain " + std::to_string(chain) + "\nedges 0\n";
  };
  expect_parse_error(chained(5), "chain");
  expect_parse_error(chained(INT_MAX), "chain");
  const std::string head = "sofe-instance v1\nnodes 2\nchain 1\nedges 1\n";
  const std::string edge = "0 1 1.0\n";
  const std::string vms = "vms 1:2.0\n";
  const std::string tail = "sources 0\ndestinations 1\n";
  EXPECT_NO_THROW(deserialize(head + edge + vms + tail));  // the valid baseline
  expect_parse_error(head + "0 5 1.0\n", "edge");
  expect_parse_error(head + "0 1 -1.0\n" + vms + tail, "edge");  // negative cost
  expect_parse_error(head + "0 0 1.0\n" + vms + tail, "edge");   // self loop
  expect_parse_error(head + edge + "vms 1:abc\n" + tail, "vms");
  expect_parse_error(head + edge + "vms 99999999999:1\n" + tail, "vms");
  expect_parse_error(head + edge + "vms 1x:1\n" + tail, "vms");
  expect_parse_error(head + edge + vms + "sources 0 zz\ndestinations 1\n", "sources");
  // Well-formedness is enforced: a "switch" with nonzero cost cannot appear
  // because only VMs carry costs in the format; missing sources fail.
  expect_parse_error(head + edge + vms + "sources\ndestinations 0\n",
                     "instance fails well-formedness checks");
}

TEST(Io, SaveLoadFile) {
  const Problem p = sample();
  const std::string path = "/tmp/sofe_io_test_instance.txt";
  save_instance(p, path);
  const Problem q = load_instance(path);
  EXPECT_EQ(q.sources, p.sources);
  EXPECT_THROW(load_instance("/nonexistent/dir/x.txt"), std::runtime_error);
}

TEST(Io, DotContainsRolesAndStages) {
  const Problem p = sample();
  const auto f = core::sofda(p);
  const std::string dot = to_dot(p, f);
  EXPECT_NE(dot.find("graph sof {"), std::string::npos);
  EXPECT_NE(dot.find("lightblue"), std::string::npos);   // sources
  EXPECT_NE(dot.find("lightyellow"), std::string::npos); // destinations
  EXPECT_NE(dot.find("palegreen"), std::string::npos);   // enabled VMs
  EXPECT_NE(dot.find("penwidth=2.5"), std::string::npos); // walk edges
  EXPECT_NE(dot.find("f1"), std::string::npos);           // VNF label
  // Bare export works too.
  const std::string bare = to_dot(p);
  EXPECT_EQ(bare.find("penwidth"), std::string::npos);
}

}  // namespace
}  // namespace sofe::io
