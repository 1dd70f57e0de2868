// I/O tests: serialize/deserialize round trip, malformed-input rejection
// (hand-written cases plus a seeded token mutation sweep), and DOT export
// structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sofe/core/sofda.hpp"
#include "sofe/io/io.hpp"
#include "sofe/topology/topology.hpp"
#include "sofe/util/rng.hpp"

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
  // Nothing may follow the last line, with or without source costs.
  expect_parse_error(head + edge + vms + tail + "nodes 3\n", "trailing content");
  expect_parse_error(head + edge + vms + tail + "source_costs 0:1\nnodes 3\n",
                     "trailing content");
  // Well-formedness is enforced: a "switch" with nonzero cost cannot appear
  // because only VMs carry costs in the format; missing sources fail.
  expect_parse_error(head + edge + vms + "sources\ndestinations 0\n",
                     "instance fails well-formedness checks");
}

/// Whitespace-separated tokens of `text` as (offset, length) pairs.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < text.size();) {
    if (text[i] == ' ' || text[i] == '\n') {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\n') ++i;
    spans.emplace_back(start, i - start);
  }
  return spans;
}

// Seeded mutation sweep over serialized instances (three make_problem
// instances on SoftLayer, Cogent and a small Inet, plus the sample with
// and without source costs).  Every token is dropped, duplicated, swapped
// with a random other token, cut in the middle (truncating the text
// there), and replaced by each hostile value and by random garbage.  Each
// mutant must parse to a well_formed() problem or throw the parser's own
// error; anything else (another exception type, an assert, a sanitizer
// report) fails the test.
TEST(Io, EveryMutantParsesOrThrowsTheParseError) {
  std::vector<Problem> instances;
  instances.push_back(sample());
  Problem costed = sample();
  costed.source_setup_cost.assign(static_cast<std::size_t>(costed.network.node_count()), 0.0);
  for (auto s : costed.sources) costed.source_setup_cost[static_cast<std::size_t>(s)] = 1.5;
  instances.push_back(costed);
  const topology::Topology topos[] = {topology::softlayer(), topology::cogent(),
                                      topology::inet(60, 120, 10, 3)};
  for (const auto& topo : topos) {
    topology::ProblemConfig cfg;
    cfg.num_vms = 5;
    cfg.num_sources = 3;
    cfg.num_destinations = 4;
    cfg.chain_length = 2;
    cfg.seed = 71;
    instances.push_back(topology::make_problem(topo, cfg));
  }

  const std::string hostile[] = {"-1", "nan", "1e308", "2147483648", "inf", "0", ""};
  const std::string alphabet = "0123456789:.-+eEx v\n";
  util::Rng rng(20261019);
  const auto garbage = [&] {
    std::string g;
    for (int i = rng.uniform_int(1, 6); i > 0; --i) g += alphabet[rng.index(alphabet.size())];
    return g;
  };

  std::size_t mutants = 0;
  std::size_t parsed = 0;
  std::vector<std::string> failures;
  const auto check = [&](const std::string& text) {
    ++mutants;
    try {
      const Problem q = deserialize(text);
      ++parsed;
      if (!q.well_formed()) failures.push_back("ill-formed problem accepted:\n" + text);
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      if (what.rfind("sofe-instance parse error: ", 0) != 0) {
        failures.push_back("foreign error '" + what + "' for:\n" + text);
      }
    }
  };
  for (const Problem& p : instances) {
    const std::string text = serialize(p);
    const auto spans = token_spans(text);
    for (std::size_t t = 0; t < spans.size(); ++t) {
      const auto [at, len] = spans[t];
      const auto replaced = [&](const std::string& with) {
        return text.substr(0, at) + with + text.substr(at + len);
      };
      const std::string token = text.substr(at, len);
      check(replaced(""));                   // drop
      check(replaced(token + " " + token));  // duplicate
      const std::size_t other = rng.index(spans.size());
      if (other != t) {  // swap with another token
        const auto [lo_at, lo_len] = spans[std::min(t, other)];
        const auto [hi_at, hi_len] = spans[std::max(t, other)];
        check(text.substr(0, lo_at) + text.substr(hi_at, hi_len) +
              text.substr(lo_at + lo_len, hi_at - lo_at - lo_len) + text.substr(lo_at, lo_len) +
              text.substr(hi_at + hi_len));
      }
      check(text.substr(0, at + rng.index(len + 1)));  // truncate inside the token
      for (const std::string& value : hostile) check(replaced(value));
      check(replaced(garbage()));
    }
  }
  EXPECT_GT(parsed, 0u);  // some mutants stay valid (e.g. a changed cost)
  EXPECT_LT(parsed, mutants);
  EXPECT_TRUE(failures.empty()) << failures.size() << " of " << mutants
                                << " mutants misbehaved; first:\n"
                                << (failures.empty() ? "" : failures.front());
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
