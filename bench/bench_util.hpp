#pragma once
// Shared helpers for the experiment harnesses (one binary per paper
// table/figure; see DESIGN.md §4).  Each harness prints the same rows/series
// the paper reports; absolute magnitudes are ours (our substrate is a
// simulator), the *shape* is the reproduction target.

#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sofe/api/registry.hpp"
#include "sofe/api/report.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/dist/dist_sofda.hpp"
#include "sofe/online/simulator.hpp"
#include "sofe/topology/topology.hpp"
#include "sofe/util/stopwatch.hpp"
#include "sofe/util/table.hpp"

namespace sofe::bench {

/// Number of random seeds averaged per experiment cell; override with
/// SOFE_BENCH_SEEDS for longer, smoother runs.
inline int seeds_per_cell(int default_seeds = 3) {
  if (const char* env = std::getenv("SOFE_BENCH_SEEDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return default_seeds;
}

inline const std::vector<std::string>& algorithm_names(bool with_exact) {
  static const std::vector<std::string> kWith{"SOFDA", "eNEMP", "eST", "ST", "CPLEX*"};
  static const std::vector<std::string> kWithout{"SOFDA", "eNEMP", "eST", "ST"};
  return with_exact ? kWith : kWithout;
}

/// Paper display name -> solver-registry name for the comparison set.
inline const std::vector<std::pair<std::string, std::string>>& comparison_solvers() {
  static const std::vector<std::pair<std::string, std::string>> kAlgos{
      {"SOFDA", "sofda"},
      {"eNEMP", "baseline/enemp"},
      {"eST", "baseline/est"},
      {"ST", "baseline/st"},
  };
  return kAlgos;
}

/// Shared envelope for every harness's --json artifact (fig09/fig10 via
/// write_dist_json, fig12, fig13): the document always opens with the bench
/// name and the "smoke" marker.  A --smoke --json run used to overwrite a
/// full artifact with fewer panels and no way to tell — consumers (CI
/// artifacts, trend scripts) key on "smoke", so the marker rule is enforced
/// here, in one place, instead of re-implemented per harness.  Append
/// bench-specific fields to body() (each starting with ","), then
/// finish(path) closes the document, writes the file and echoes the path.
class BenchJsonWriter {
 public:
  BenchJsonWriter(const std::string& bench_name, bool smoke) {
    out_ << "{\"bench\":\"" << bench_name << "\",\"smoke\":" << (smoke ? "true" : "false");
  }
  std::ostringstream& body() noexcept { return out_; }
  void finish(const char* path) {
    out_ << "}\n";
    std::ofstream file(path);
    file << out_.str();
    std::cout << "wrote " << path << "\n";
  }

 private:
  std::ostringstream out_;
};

/// Prints per-phase timing breakdowns (closure/pricing/solve/total
/// mean+p95 in milliseconds, plus the closure-session and pricing-cache
/// outcome tallies and the peak closure slab footprint)
/// collected by ReportAccumulators — one row per algorithm.
inline void print_phase_breakdown(
    const std::string& title,
    const std::vector<std::pair<std::string, const api::ReportAccumulator*>>& rows) {
  std::cout << "\n" << title << "\n";
  util::Table table({"algo", "solves", "closure ms (p95)", "pricing ms (p95)",
                     "solve ms (p95)", "total ms (p95)", "hit/repair/rebuild",
                     "chains hit/repriced", "peak KB"});
  const auto cell = [](const api::PhaseSummary& s) {
    return util::Table::num(s.mean * 1e3, 2) + " (" + util::Table::num(s.p95 * 1e3, 2) + ")";
  };
  for (const auto& [name, acc] : rows) {
    table.add_row({name, std::to_string(acc->solves()), cell(acc->closure()),
                   cell(acc->pricing()), cell(acc->solve()), cell(acc->total()),
                   std::to_string(acc->cache_hits()) + "/" + std::to_string(acc->repairs()) +
                       "/" + std::to_string(acc->rebuilds()),
                   std::to_string(acc->pricing_hits()) + "/" +
                       std::to_string(acc->pricing_repriced()),
                   util::Table::num(static_cast<double>(acc->peak_closure_bytes()) / 1024.0, 1)});
  }
  table.print();
}

/// Mean total cost per algorithm over `seeds` sampled instances.
/// "CPLEX*" is our exact solver (DESIGN.md §3); its average covers the seeds
/// it proved optimal within budget and is omitted when it closed none
/// (larger |C| cells — documented in EXPERIMENTS.md).
/// When `acc` is given, every solve's report is folded into the caller's
/// per-algorithm accumulators (print_phase_breakdown renders them).
inline std::map<std::string, double> mean_costs(const topology::Topology& topo,
                                                topology::ProblemConfig cfg, int seeds,
                                                bool with_exact,
                                                std::map<std::string, api::ReportAccumulator>* acc = nullptr) {
  // One solver session per algorithm, reused across the seed loop: each
  // seed's graph differs (cache miss), but the sessions keep their engine
  // and tree workspaces warm.
  std::vector<std::pair<std::string, std::unique_ptr<api::Solver>>> solvers;
  for (const auto& [display, registered] : comparison_solvers()) {
    solvers.emplace_back(display, api::make_solver(registered));
    if (acc != nullptr) solvers.back().second->set_report_sink(&(*acc)[display]);
  }
  api::SolverOptions exact_opt;
  exact_opt.exact_limits.max_bnb_nodes = 10000;
  exact_opt.exact_limits.max_seconds = 25.0;  // fail fast on unclosable cells; EXPERIMENTS.md
  const auto exact_solver = with_exact ? api::make_solver("exact", exact_opt) : nullptr;

  std::map<std::string, double> sum;
  int counted = 0, exact_counted = 0;
  double exact_sum = 0.0;
  for (int s = 0; s < seeds; ++s) {
    cfg.seed = 1000 + 77 * static_cast<std::uint64_t>(s) + cfg.seed % 77;
    const auto p = topology::make_problem(topo, cfg);
    std::map<std::string, double> costs;
    bool all_feasible = true;
    for (const auto& [display, solver] : solvers) {
      const auto f = solver->solve(p);
      all_feasible = all_feasible && !f.empty();
      costs[display] = solver->report().total_cost;
    }
    if (!all_feasible) continue;
    if (exact_solver) {
      (void)exact_solver->solve(p);
      if (exact_solver->report().optimal) {
        exact_sum += exact_solver->report().total_cost;
        ++exact_counted;
      }
    }
    for (const auto& [display, cost] : costs) sum[display] += cost;
    ++counted;
  }
  if (counted > 0) {
    for (auto& [k, v] : sum) v /= counted;
  }
  // Only report the exact average when it covers the same seed set as the
  // heuristics — a partial average is not comparable.
  if (exact_counted == counted && exact_counted > 0) sum["CPLEX*"] = exact_sum / exact_counted;
  return sum;
}

/// Prints one sweep as a paper-style series table.
inline void print_sweep(const std::string& title, const std::string& x_name,
                        const std::vector<int>& xs,
                        const std::vector<std::map<std::string, double>>& rows,
                        bool with_exact, double scale = 1.0) {
  std::cout << "\n" << title << "\n";
  std::vector<std::string> header{x_name};
  for (const auto& a : algorithm_names(with_exact)) header.push_back(a);
  util::Table table(header);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::vector<std::string> cells{std::to_string(xs[i])};
    for (const auto& a : algorithm_names(with_exact)) {
      const auto it = rows[i].find(a);
      cells.push_back(it == rows[i].end() ? "-" : util::Table::num(it->second / scale, 2));
    }
    table.add_row(std::move(cells));
  }
  table.print();
}

/// The paper's four sweeps (Figs. 8, 9, 10): #sources, #destinations,
/// #available VMs, service-chain length.
inline void run_cost_figure(const topology::Topology& topo, bool with_exact, double scale,
                            int max_dest_for_exact = 10) {
  const int seeds = seeds_per_cell();
  topology::ProblemConfig base;  // paper defaults: 14 sources, 6 dests, 25 VMs, |C|=3
  std::map<std::string, api::ReportAccumulator> acc;  // figure-wide phase stats

  {
    const std::vector<int> xs{2, 8, 14, 20, 26};
    std::vector<std::map<std::string, double>> rows;
    for (int x : xs) {
      auto cfg = base;
      cfg.num_sources = x;
      rows.push_back(mean_costs(topo, cfg, seeds, with_exact, &acc));
    }
    print_sweep("(a) cost vs number of sources", "|S|", xs, rows, with_exact, scale);
  }
  {
    const std::vector<int> xs{2, 4, 6, 8, 10};
    std::vector<std::map<std::string, double>> rows;
    for (int x : xs) {
      auto cfg = base;
      cfg.num_destinations = x;
      rows.push_back(mean_costs(topo, cfg, seeds, with_exact && x <= max_dest_for_exact, &acc));
    }
    print_sweep("(b) cost vs number of destinations", "|D|", xs, rows, with_exact, scale);
  }
  {
    const std::vector<int> xs{5, 15, 25, 35, 45};
    std::vector<std::map<std::string, double>> rows;
    for (int x : xs) {
      auto cfg = base;
      cfg.num_vms = x;
      rows.push_back(mean_costs(topo, cfg, seeds, with_exact, &acc));
    }
    print_sweep("(c) cost vs number of available VMs", "|M|", xs, rows, with_exact, scale);
  }
  {
    const std::vector<int> xs{3, 4, 5, 6, 7};
    std::vector<std::map<std::string, double>> rows;
    for (int x : xs) {
      auto cfg = base;
      cfg.chain_length = x;
      // The exact branch-and-bound stops proving optimality within budget
      // beyond |C| = 4 (relaxation gap grows with chain length); those
      // cells print "-" (EXPERIMENTS.md).
      rows.push_back(mean_costs(topo, cfg, seeds, with_exact && x <= 4, &acc));
    }
    print_sweep("(d) cost vs service chain length", "|C|", xs, rows, with_exact, scale);
  }

  std::vector<std::pair<std::string, const api::ReportAccumulator*>> rows;
  for (const auto& [display, registered] : comparison_solvers()) {
    (void)registered;
    rows.emplace_back(display, &acc.at(display));
  }
  print_phase_breakdown("per-solve phase breakdown (all sweeps)", rows);
}

// ------------------------------------------------------------------------
// Multi-controller k-sweep panel (DESIGN.md §11): shared by the Cogent and
// Inet cost figures.  For each controller count it runs the one-shot
// distributed solve (sharded closure build + row exchange) and an online
// arrival loop with the "dist/k=<k>" session solver, asserting both stay
// *bitwise* identical to the centralized "sofda" run — the property the
// sharded stitch guarantees — and reporting the scaling the sharding buys:
// per-controller closure build time shrinking with k, exchanged bytes
// tracking |borders|·|hubs ∪ borders| rather than |V|².

struct DistSweepPoint {
  int k = 1;                    // controllers requested (== used on these instances)
  double closure_build_seconds = 0.0;        // slowest controller (critical path)
  double closure_build_seconds_total = 0.0;  // sum over controllers (the k=1 work)
  double stitch_seconds = 0.0;
  std::size_t exchanged_rows = 0;
  std::size_t exchanged_entries = 0;
  std::size_t skeleton_edges = 0;
  std::size_t messages = 0;
  std::size_t payload_bytes = 0;  // whole-protocol wire bytes (incl. row exchange)
  int rounds = 0;
  double arrival_loop_seconds = 0.0;  // online stream through the dist session
  bool identical = true;              // one-shot forest AND online series == "sofda"
};

struct DistSweep {
  std::string topology;
  int nodes = 0;
  int edges = 0;
  std::size_t hub_count = 0;  // VMs + sources of the one-shot instance
  std::vector<DistSweepPoint> points;
};

inline bool dist_forests_identical(const core::ServiceForest& a, const core::ServiceForest& b) {
  if (a.walks.size() != b.walks.size()) return false;
  for (std::size_t i = 0; i < a.walks.size(); ++i) {
    if (a.walks[i].source != b.walks[i].source ||
        a.walks[i].destination != b.walks[i].destination ||
        a.walks[i].nodes != b.walks[i].nodes || a.walks[i].vnf_pos != b.walks[i].vnf_pos) {
      return false;
    }
  }
  return true;
}

inline bool dist_series_identical(const online::OnlineResult& a, const online::OnlineResult& b) {
  if (a.accumulative_cost.size() != b.accumulative_cost.size()) return false;
  for (std::size_t i = 0; i < a.accumulative_cost.size(); ++i) {
    if (a.accumulative_cost[i] != b.accumulative_cost[i]) return false;  // bitwise
    if (a.per_request_cost[i] != b.per_request_cost[i]) return false;
  }
  return a.infeasible_requests == b.infeasible_requests &&
         a.overloaded_links == b.overloaded_links;
}

inline DistSweep run_dist_ksweep(const topology::Topology& topo, topology::ProblemConfig cfg,
                                 const online::OnlineConfig& online_cfg,
                                 const std::vector<int>& ks = {1, 2, 4, 8}) {
  DistSweep sweep;
  sweep.topology = topo.name;
  sweep.nodes = static_cast<int>(topo.g.node_count());
  sweep.edges = static_cast<int>(topo.g.edge_count());

  const auto p = topology::make_problem(topo, cfg);
  sweep.hub_count = p.vms().size() + p.sources.size();
  core::SofdaStats central_stats;
  const auto central = core::sofda(p, {}, &central_stats);

  // The online determinism reference: the same stream through "sofda".
  auto central_solver = api::make_solver("sofda");
  const auto central_series = simulate(topo, online_cfg, *central_solver);

  std::cout << "\nmulti-controller k-sweep (" << sweep.topology << ", " << sweep.nodes
            << " nodes, " << sweep.edges << " links, " << sweep.hub_count << " hubs, "
            << online_cfg.requests << " online arrivals)\n";
  util::Table table({"k", "build_s(max)", "build_s(sum)", "stitch_s", "rows", "KB",
                     "skel_edges", "rounds", "arrivals_s", "vs sofda"});
  for (int k : ks) {
    DistSweepPoint pt;
    pt.k = k;
    const auto r = dist::distributed_sofda(p, k);
    pt.closure_build_seconds = r.closure_build_seconds;
    pt.closure_build_seconds_total = r.closure_build_seconds_total;
    pt.stitch_seconds = r.stitch_seconds;
    pt.exchanged_rows = r.exchanged_rows;
    pt.exchanged_entries = r.exchanged_entries;
    pt.skeleton_edges = r.skeleton_edges;
    pt.messages = r.messages;
    pt.payload_bytes = r.payload_bytes;
    pt.rounds = r.rounds;
    pt.identical = dist_forests_identical(r.forest, central) &&
                   r.stats.steiner_tree_cost == central_stats.steiner_tree_cost;

    auto solver = api::make_solver("dist/k=" + std::to_string(k));
    util::Stopwatch watch;
    const auto series = simulate(topo, online_cfg, *solver);
    pt.arrival_loop_seconds = watch.seconds();
    pt.identical = pt.identical && dist_series_identical(series, central_series);
    if (!pt.identical) {
      std::cerr << "ERROR: dist/k=" << k << " diverged from the centralized sofda run on "
                << sweep.topology << "\n";
    }

    table.add_row({std::to_string(k), util::Table::num(pt.closure_build_seconds * 1e3, 2) + "ms",
                   util::Table::num(pt.closure_build_seconds_total * 1e3, 2) + "ms",
                   util::Table::num(pt.stitch_seconds * 1e3, 2) + "ms",
                   std::to_string(pt.exchanged_rows),
                   util::Table::num(static_cast<double>(pt.payload_bytes) / 1024.0, 1),
                   std::to_string(pt.skeleton_edges), std::to_string(pt.rounds),
                   util::Table::num(pt.arrival_loop_seconds, 3),
                   pt.identical ? "bit-identical" : "DIVERGED"});
    sweep.points.push_back(pt);
  }
  table.print();
  std::cout << "(k=1 is the centralized fallback: no exchange, no rounds; at k>1 the row\n"
            << " exchange ships O(|borders|*|hubs+borders|) entries, never |V|^2)\n";
  return sweep;
}

inline void write_dist_json(const std::string& bench_name, const std::vector<DistSweep>& sweeps,
                            bool smoke, const char* path) {
  BenchJsonWriter writer(bench_name, smoke);
  std::ostringstream& out = writer.body();
  out << ",\"sweeps\":[";
  for (std::size_t si = 0; si < sweeps.size(); ++si) {
    const auto& s = sweeps[si];
    out << (si ? "," : "") << "{\"topology\":\"" << s.topology << "\",\"nodes\":" << s.nodes
        << ",\"edges\":" << s.edges << ",\"hubs\":" << s.hub_count << ",\"points\":[";
    for (std::size_t pi = 0; pi < s.points.size(); ++pi) {
      const auto& pt = s.points[pi];
      out << (pi ? "," : "") << "{\"k\":" << pt.k
          << ",\"closure_build_seconds\":" << pt.closure_build_seconds
          << ",\"closure_build_seconds_total\":" << pt.closure_build_seconds_total
          << ",\"stitch_seconds\":" << pt.stitch_seconds
          << ",\"exchanged_rows\":" << pt.exchanged_rows
          << ",\"exchanged_entries\":" << pt.exchanged_entries
          << ",\"exchanged_bytes\":" << pt.exchanged_entries * sizeof(core::Cost)
          << ",\"skeleton_edges\":" << pt.skeleton_edges << ",\"messages\":" << pt.messages
          << ",\"payload_bytes\":" << pt.payload_bytes << ",\"rounds\":" << pt.rounds
          << ",\"arrival_loop_seconds\":" << pt.arrival_loop_seconds
          << ",\"bit_identical\":" << (pt.identical ? "true" : "false") << "}";
    }
    out << "]}";
  }
  out << "]";
  writer.finish(path);
}

/// Exit status for the dist panel: nonzero when any point diverged from the
/// centralized run (the smoke ctest entry fails loudly on it).
inline bool dist_sweeps_identical(const std::vector<DistSweep>& sweeps) {
  for (const auto& s : sweeps) {
    for (const auto& pt : s.points) {
      if (!pt.identical) return false;
    }
  }
  return true;
}

}  // namespace sofe::bench
