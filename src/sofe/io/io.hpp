#pragma once
// Instance and solution I/O:
//  * Graphviz DOT export of a problem and an embedded forest (VMs, sources,
//    destinations and per-stage walk edges are styled distinctly), for
//    inspecting embeddings visually;
//  * a plain-text instance format with full round-trip fidelity, so problem
//    instances can be shipped alongside bug reports and experiment logs.

#include <iosfwd>
#include <string>

#include "sofe/core/forest.hpp"
#include "sofe/core/problem.hpp"

namespace sofe::io {

using core::Problem;
using core::ServiceForest;

/// Graphviz DOT of the bare problem (roles coloured, links weighted).
std::string to_dot(const Problem& p);

/// Graphviz DOT of the problem plus an embedded forest: enabled VMs carry
/// their VNF index, walk edges are coloured per stage.
std::string to_dot(const Problem& p, const ServiceForest& f);

/// Serializes the problem to the `sofe-instance v1` text format.
std::string serialize(const Problem& p);

/// Largest `nodes` count deserialize() accepts.  The header's count sizes
/// the graph before any edge is read, so without a cap one hostile line
/// could ask for tens of gigabytes; the largest graph the library builds
/// (Inet-5000 plus its VMs) is more than 800 times smaller.
inline constexpr int kMaxInstanceNodes = 1 << 22;

/// Parses a `sofe-instance v1` text.  Throws std::runtime_error on malformed
/// input, including a `nodes` count above kMaxInstanceNodes.
Problem deserialize(const std::string& text);

/// File helpers.
void save_instance(const Problem& p, const std::string& path);
Problem load_instance(const std::string& path);

}  // namespace sofe::io
