#include "sofe/io/io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace sofe::io {

using core::Cost;
using core::NodeId;

namespace {

const char* kStageColors[] = {"black", "blue", "red", "darkgreen", "purple",
                              "orange", "brown", "cyan4"};

std::string node_attrs(const Problem& p, NodeId v, const std::map<NodeId, int>& enabled) {
  const bool is_src = std::find(p.sources.begin(), p.sources.end(), v) != p.sources.end();
  const bool is_dst =
      std::find(p.destinations.begin(), p.destinations.end(), v) != p.destinations.end();
  std::ostringstream os;
  os << "label=\"" << v;
  if (p.is_vm[static_cast<std::size_t>(v)]) {
    os << "\\nc=" << p.node_cost[static_cast<std::size_t>(v)];
    const auto it = enabled.find(v);
    if (it != enabled.end()) os << "\\nf" << it->second;
  }
  os << "\"";
  if (is_src) {
    os << ", shape=box, style=filled, fillcolor=lightblue";
  } else if (is_dst) {
    os << ", shape=doublecircle, style=filled, fillcolor=lightyellow";
  } else if (p.is_vm[static_cast<std::size_t>(v)]) {
    os << ", shape=hexagon, style=filled, "
       << (enabled.contains(v) ? "fillcolor=palegreen" : "fillcolor=gray90");
  } else {
    os << ", shape=circle";
  }
  return os.str();
}

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error("sofe-instance parse error: " + why);
}

/// One whole token as a number: std::from_chars must consume all of it,
/// so "1x", "abc" and out-of-range values fail as `field`.
template <typename T>
T parse(std::string_view tok, const char* field) {
  T value{};
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) fail(field);
  return value;
}

}  // namespace

std::string to_dot(const Problem& p) {
  return to_dot(p, ServiceForest{});
}

std::string to_dot(const Problem& p, const ServiceForest& f) {
  const auto enabled = f.enabled_vms();
  std::ostringstream os;
  os << "graph sof {\n  overlap=false;\n";
  for (NodeId v = 0; v < p.network.node_count(); ++v) {
    os << "  n" << v << " [" << node_attrs(p, v, enabled) << "];\n";
  }
  // Stage-edge uses (if any) override plain link styling.
  std::map<std::pair<NodeId, NodeId>, std::set<int>> stages;
  for (const auto& se : f.stage_edges()) {
    stages[{se.u, se.v}].insert(se.stage);
  }
  std::set<std::pair<NodeId, NodeId>> drawn;
  for (const auto& e : p.network.edges()) {
    const auto key = core::Graph::edge_key(e.u, e.v);
    if (!drawn.insert(key).second) continue;  // parallel edges share a line
    os << "  n" << key.first << " -- n" << key.second << " [label=\"" << e.cost << "\"";
    const auto it = stages.find(key);
    if (it != stages.end()) {
      os << ", penwidth=2.5, color=\"";
      bool first = true;
      for (int s : it->second) {
        if (!first) os << ":";
        os << kStageColors[static_cast<std::size_t>(s) % 8];
        first = false;
      }
      os << "\"";
    } else {
      os << ", color=gray70";
    }
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

std::string serialize(const Problem& p) {
  std::ostringstream os;
  os.precision(17);
  os << "sofe-instance v1\n";
  os << "nodes " << p.network.node_count() << "\n";
  os << "chain " << p.chain_length << "\n";
  os << "edges " << p.network.edge_count() << "\n";
  for (const auto& e : p.network.edges()) {
    os << e.u << " " << e.v << " " << e.cost << "\n";
  }
  os << "vms";
  for (NodeId v = 0; v < p.network.node_count(); ++v) {
    if (p.is_vm[static_cast<std::size_t>(v)]) {
      os << " " << v << ":" << p.node_cost[static_cast<std::size_t>(v)];
    }
  }
  os << "\nsources";
  for (NodeId s : p.sources) os << " " << s;
  os << "\ndestinations";
  for (NodeId d : p.destinations) os << " " << d;
  os << "\n";
  if (p.has_source_costs()) {
    os << "source_costs";
    for (NodeId s : p.sources) os << " " << s << ":" << p.source_cost(s);
    os << "\n";
  }
  return os.str();
}

Problem deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "sofe-instance v1") fail("bad header");

  Problem p;
  std::string key;
  std::string tok;
  // "<key> <count>" header lines: the count must be a whole non-negative
  // integer token.
  const auto header = [&](const char* name) {
    if (!(is >> key >> tok) || key != name) fail(name);
    const int n = parse<int>(tok, name);
    if (n < 0) fail(name);
    return n;
  };
  const int nodes = header("nodes");
  if (nodes > kMaxInstanceNodes) fail("nodes");  // refused before anything is sized by it
  p.chain_length = header("chain");
  // Each VNF runs on its own VM, so a chain longer than the node count can
  // never be embedded; refusing it also keeps chain_length + 1 in range.
  if (p.chain_length > nodes) fail("chain");
  const int edges = header("edges");
  p.network = core::Graph(nodes);
  p.node_cost.assign(static_cast<std::size_t>(nodes), 0.0);
  p.is_vm.assign(static_cast<std::size_t>(nodes), 0);
  const auto node = [&](std::string_view t, const char* field) {
    const NodeId v = parse<NodeId>(t, field);
    if (v < 0 || v >= nodes) fail(field);
    return v;
  };
  // "<node>:<cost>" tokens; the cost must be >= 0 (NaN fails the test).
  const auto costed_node = [&](std::string_view t, const char* field) {
    const auto colon = t.find(':');
    if (colon == std::string_view::npos) fail(field);
    const NodeId v = node(t.substr(0, colon), field);
    const Cost c = parse<Cost>(t.substr(colon + 1), field);
    if (!(c >= 0.0)) fail(field);
    return std::pair{v, c};
  };
  for (int e = 0; e < edges; ++e) {
    std::string u_tok, v_tok, c_tok;
    if (!(is >> u_tok >> v_tok >> c_tok)) fail("edge");
    const NodeId u = node(u_tok, "edge");
    const NodeId v = node(v_tok, "edge");
    const Cost c = parse<Cost>(c_tok, "edge");
    // Graph::add_edge's contract: no self loops, costs >= 0 (NaN fails).
    if (u == v || !(c >= 0.0)) fail("edge");
    p.network.add_edge(u, v, c);
  }
  // The rest is keyed lines of whitespace-separated tokens.
  const auto rest_of_line = [&] {
    std::getline(is, line);
    std::istringstream ls(line);
    std::vector<std::string> out;
    while (ls >> tok) out.push_back(tok);
    return out;
  };
  const auto tokens = [&](const char* name) {
    if (!(is >> key) || key != name) fail(name);
    return rest_of_line();
  };
  for (const std::string& t : tokens("vms")) {
    const auto [v, c] = costed_node(t, "vms");
    p.is_vm[static_cast<std::size_t>(v)] = 1;
    p.node_cost[static_cast<std::size_t>(v)] = c;
  }
  for (const std::string& t : tokens("sources")) p.sources.push_back(node(t, "sources"));
  for (const std::string& t : tokens("destinations")) {
    p.destinations.push_back(node(t, "destinations"));
  }
  if (is >> key) {
    if (key != "source_costs") fail("trailing content");
    p.source_setup_cost.assign(static_cast<std::size_t>(nodes), 0.0);
    for (const std::string& t : rest_of_line()) {
      const auto [s, c] = costed_node(t, "source_costs");
      p.source_setup_cost[static_cast<std::size_t>(s)] = c;
    }
    if (is >> key) fail("trailing content");
  }
  if (!p.well_formed()) fail("instance fails well-formedness checks");
  return p;
}

void save_instance(const Problem& p, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << serialize(p);
}

Problem load_instance(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return deserialize(buffer.str());
}

}  // namespace sofe::io
