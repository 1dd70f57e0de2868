// CLI driver: solve a SOF instance file with any algorithm in the library.
//
//   example_solve_instance [--algo sofda|sofda-ss|est|enemp|st|exact]
//                          [--dot out.dot] [instance.txt]
//
// Without an instance file, a demo instance is generated, saved to
// /tmp/sofe_demo_instance.txt and solved — so running the binary bare shows
// the full load -> solve -> export loop.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "sofe/api/registry.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/io/io.hpp"
#include "sofe/topology/topology.hpp"

using namespace sofe;

namespace {

void usage() {
  std::cout << "usage: example_solve_instance [--algo NAME] [--dot FILE] [instance.txt]\n"
               "  NAME is a solver-registry name; short aliases st/est/enemp also work.\n"
               "  registered solvers:\n";
  for (const auto& name : api::SolverRegistry::global().names()) {
    std::cout << "    " << name;
    for (std::size_t pad = name.size(); pad < 20; ++pad) std::cout << ' ';
    std::cout << api::SolverRegistry::global().describe(name) << "\n";
  }
}

/// Pre-registry spellings kept as aliases.
std::string canonical_algo(const std::string& algo) {
  if (algo == "st") return "baseline/st";
  if (algo == "est") return "baseline/est";
  if (algo == "enemp") return "baseline/enemp";
  return algo;
}

}  // namespace

int main(int argc, char** argv) {
  std::string algo = "sofda";
  std::string dot_path;
  std::string instance_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--algo") == 0 && i + 1 < argc) {
      algo = argv[++i];
    } else if (std::strcmp(argv[i], "--dot") == 0 && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 0;
    } else {
      instance_path = argv[i];
    }
  }

  core::Problem p;
  if (instance_path.empty()) {
    topology::ProblemConfig cfg;
    cfg.num_vms = 10;
    cfg.num_sources = 3;
    cfg.num_destinations = 4;
    cfg.chain_length = 2;
    cfg.seed = 12;
    p = topology::make_problem(topology::softlayer(), cfg);
    instance_path = "/tmp/sofe_demo_instance.txt";
    io::save_instance(p, instance_path);
    std::cout << "no instance given; demo instance written to " << instance_path << "\n";
  } else {
    try {
      p = io::load_instance(instance_path);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  std::cout << "instance: " << p.network.node_count() << " nodes, "
            << p.network.edge_count() << " links, |M|=" << p.vms().size()
            << ", |S|=" << p.sources.size() << ", |D|=" << p.destinations.size()
            << ", |C|=" << p.chain_length << "\n";

  const std::string name = canonical_algo(algo);
  if (!api::SolverRegistry::global().contains(name)) {
    usage();
    return 1;
  }
  const auto solver = api::make_solver(name);
  core::ServiceForest forest;
  try {
    forest = solver->solve(p);
  } catch (const std::exception& e) {
    // e.g. sofda/exact-stroll on an instance past the exact DP's limit.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (name == "exact") {
    if (!solver->report().optimal) {
      std::cerr << "exact solver could not prove optimality within limits\n";
      return 2;
    }
    std::cout << "(optimum proven; " << solver->report().bnb_nodes
              << " branch-and-bound nodes)\n";
  }

  if (forest.empty()) {
    std::cerr << "no feasible forest found\n";
    return 2;
  }
  const auto report = core::validate(p, forest);
  std::cout << core::describe(p, forest);
  std::cout << "feasible: " << (report.ok ? "yes" : report.summary()) << "\n";
  if (!dot_path.empty()) {
    std::ofstream out(dot_path);
    out << io::to_dot(p, forest);
    std::cout << "DOT written to " << dot_path << " (render: neato -Tpdf)\n";
  }
  return report.ok ? 0 : 3;
}
