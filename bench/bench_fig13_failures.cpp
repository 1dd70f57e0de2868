// Fig. 13 companion: failure drills on the paper's 14-node/20-link SDN
// testbed (plus SoftLayer in the full run) — scripted link failures swept
// over failure rate × migration budget, with every affected service forest
// recovered by the resilience engine (DESIGN.md §12).
//
// Per sweep point the harness reports recovery latency, migrated/dropped
// user counts, escalation rate and the solution-quality delta vs the
// from-scratch reference.  The budget-unbounded column doubles as the
// acceptance check: the engine must adopt the from-scratch re-embed at
// every event (chosen_cost bitwise == scratch_cost), and the whole drill —
// cost series AND recovery reports — must be bitwise identical between the
// warm incremental session and the cold recomputing reference driver, and
// across pipeline worker counts.  Any divergence exits 1, which the
// bench_resilience_smoke ctest entry fails loudly on.
//
// Flags:
//   --smoke   tiny instance (CI: one rate, budgets {0, unbounded}, workers
//             {1, 2}); the JSON carries "smoke": true
//   --json    additionally write the measurements to BENCH_resilience.json

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sofe/online/pipeline.hpp"
#include "sofe/online/simulator.hpp"

namespace {

using sofe::resilience::FailureEvent;
using sofe::resilience::FailurePlan;

struct DrillPoint {
  double failure_rate = 0.0;
  int budget = 0;  // max_moved_users; -1 = unbounded
  int failed_links = 0;
  int recoveries = 0;
  int escalations = 0;
  int rerouted_segments = 0;
  int moved_users = 0;
  int dropped_users = 0;
  int infeasible_requests = 0;
  double mean_recovery_ms = 0.0;
  double max_recovery_ms = 0.0;
  double final_cost = 0.0;
  /// Mean chosen/scratch cost ratio over events where both are finite —
  /// the quality delta a bounded budget trades for fewer moved users.
  double quality_vs_scratch = 1.0;
  bool unbounded_matches_scratch = true;  // budget < 0 only
  bool identical_to_reference = true;     // budget < 0 only
};

struct PipelinePoint {
  int workers = 0;
  bool identical = true;
  double seconds = 0.0;
};

struct Panel {
  std::string name;
  int requests = 0;
  std::vector<DrillPoint> points;
  std::vector<PipelinePoint> pipeline;
};

/// Deterministic plan: round(rate · links) distinct links, failures spread
/// over the middle of the stream, each healing requests/5 arrivals later
/// (or never, when that falls past the end).
FailurePlan make_plan(const sofe::topology::Topology& topo, int requests, double rate,
                      std::uint64_t seed) {
  const int links = static_cast<int>(topo.g.edge_count());
  const int n_fail = std::min(links, std::max(1, static_cast<int>(std::lround(rate * links))));
  sofe::util::Rng rng(seed);
  const auto picks = rng.sample_without_replacement(static_cast<std::size_t>(links),
                                                    static_cast<std::size_t>(n_fail));
  FailurePlan plan;
  const int start = std::max(1, requests / 4);
  const int span = std::max(1, requests / 2);
  const int heal_after = std::max(2, requests / 5);
  for (std::size_t i = 0; i < picks.size(); ++i) {
    FailureEvent ev;
    ev.target = FailureEvent::Target::kLink;
    ev.id = static_cast<std::int32_t>(picks[i]);
    ev.fail_at = start + static_cast<int>((i * static_cast<std::size_t>(span)) / picks.size());
    const int heal = ev.fail_at + heal_after;
    ev.heal_at = heal < requests ? heal : -1;
    plan.events.push_back(ev);
  }
  return plan;
}

bool series_identical(const sofe::online::OnlineResult& a, const sofe::online::OnlineResult& b) {
  if (a.accumulative_cost.size() != b.accumulative_cost.size()) return false;
  for (std::size_t i = 0; i < a.accumulative_cost.size(); ++i) {
    if (a.accumulative_cost[i] != b.accumulative_cost[i]) return false;  // bitwise
    if (a.per_request_cost[i] != b.per_request_cost[i]) return false;
  }
  return a.infeasible_requests == b.infeasible_requests &&
         a.overloaded_links == b.overloaded_links;
}

/// Recovery reports bitwise identical, wall time excluded.
bool recoveries_identical(const sofe::online::OnlineResult& a,
                          const sofe::online::OnlineResult& b) {
  if (a.recoveries.size() != b.recoveries.size()) return false;
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    const auto& x = a.recoveries[i];
    const auto& y = b.recoveries[i];
    if (x.epoch_first != y.epoch_first || x.slot != y.slot ||
        x.rerouted_segments != y.rerouted_segments || x.moved_users != y.moved_users ||
        x.dropped_users != y.dropped_users || x.escalated != y.escalated ||
        x.repaired_cost != y.repaired_cost || x.scratch_cost != y.scratch_cost ||
        x.chosen_cost != y.chosen_cost) {
      return false;
    }
  }
  return true;
}

DrillPoint run_point(const sofe::topology::Topology& topo, sofe::online::OnlineConfig cfg,
                     const FailurePlan& plan, double rate, int budget) {
  cfg.failures = &plan;
  cfg.recovery.max_moved_users = budget;

  DrillPoint pt;
  pt.failure_rate = rate;
  pt.budget = budget;
  pt.failed_links = static_cast<int>(plan.events.size());

  auto warm = sofe::api::make_solver("sofda");
  const auto r = simulate(topo, cfg, *warm);

  pt.recoveries = static_cast<int>(r.recoveries.size());
  pt.infeasible_requests = r.infeasible_requests;
  pt.final_cost = r.accumulative_cost.empty() ? 0.0 : r.accumulative_cost.back();
  double quality_sum = 0.0;
  int quality_n = 0;
  for (const auto& rep : r.recoveries) {
    pt.escalations += rep.escalated ? 1 : 0;
    pt.rerouted_segments += rep.rerouted_segments;
    pt.moved_users += rep.moved_users;
    pt.dropped_users += rep.dropped_users;
    pt.mean_recovery_ms += rep.seconds * 1e3;
    pt.max_recovery_ms = std::max(pt.max_recovery_ms, rep.seconds * 1e3);
    if (rep.chosen_cost < sofe::graph::kInfiniteCost &&
        rep.scratch_cost < sofe::graph::kInfiniteCost && rep.scratch_cost > 0.0) {
      quality_sum += rep.chosen_cost / rep.scratch_cost;
      ++quality_n;
    }
    if (budget < 0 && rep.scratch_cost < sofe::graph::kInfiniteCost &&
        rep.chosen_cost != rep.scratch_cost) {
      pt.unbounded_matches_scratch = false;
    }
  }
  if (pt.recoveries > 0) pt.mean_recovery_ms /= pt.recoveries;
  if (quality_n > 0) pt.quality_vs_scratch = quality_sum / quality_n;

  if (budget < 0) {
    // The from-scratch reference drill: a strict session that rebuilds its
    // closure, and so re-prices every chain, whenever anything changed.
    // The warm incremental drill above must reproduce it bit for bit —
    // recoveries included — or the resilience layer leaked session state
    // into results.
    sofe::api::SolverOptions cold_opt;
    cold_opt.incremental = false;
    auto cold = sofe::api::make_solver("sofda", cold_opt);
    const auto reference = simulate(topo, cfg, *cold);
    pt.identical_to_reference = series_identical(r, reference) && recoveries_identical(r, reference);
    if (!pt.unbounded_matches_scratch) {
      std::cerr << "ERROR: unbounded budget kept a repair over a feasible "
                   "from-scratch re-embed (rate "
                << rate << ")\n";
    }
    if (!pt.identical_to_reference) {
      std::cerr << "ERROR: unbounded drill diverges from the from-scratch "
                   "reference driver (rate "
                << rate << ")\n";
    }
  }
  return pt;
}

Panel run_panel(const char* title, const sofe::topology::Topology& topo,
                const sofe::online::OnlineConfig& cfg, const std::vector<double>& rates,
                const std::vector<int>& budgets, const std::vector<int>& worker_counts,
                std::uint64_t plan_seed) {
  std::cout << "\n" << title << " (" << cfg.requests << " arrivals)\n";
  Panel panel;
  panel.name = title;
  panel.requests = cfg.requests;

  sofe::util::Table table({"rate", "budget", "fails", "recov", "escal", "moved", "drop",
                           "reroute", "mean_ms", "quality", "final_cost"});
  for (const double rate : rates) {
    const FailurePlan plan = make_plan(topo, cfg.requests, rate, plan_seed);
    for (const int budget : budgets) {
      DrillPoint pt = run_point(topo, cfg, plan, rate, budget);
      table.add_row({sofe::util::Table::num(rate, 2),
                     budget < 0 ? "inf" : std::to_string(budget),
                     std::to_string(pt.failed_links), std::to_string(pt.recoveries),
                     std::to_string(pt.escalations), std::to_string(pt.moved_users),
                     std::to_string(pt.dropped_users), std::to_string(pt.rerouted_segments),
                     sofe::util::Table::num(pt.mean_recovery_ms, 2),
                     sofe::util::Table::num(pt.quality_vs_scratch, 4),
                     sofe::util::Table::num(pt.final_cost, 0)});
      panel.points.push_back(pt);
    }
  }
  table.print();

  // Pipeline cross-check at the unbounded budget: the drill runs inside
  // epoch publication, so every worker count must reproduce the sequential
  // driver's series and reports bit for bit.
  {
    auto drill_cfg = cfg;
    const FailurePlan plan = make_plan(topo, cfg.requests, rates.front(), plan_seed);
    drill_cfg.failures = &plan;
    drill_cfg.epoch_size = std::max(2, cfg.requests / 4);
    auto solver = sofe::api::make_solver("sofda");
    const auto reference = simulate(topo, drill_cfg, *solver);
    for (const int workers : worker_counts) {
      sofe::online::PipelineOptions popt;
      popt.workers = workers;
      sofe::util::Stopwatch watch;
      const auto got = sofe::online::Pipeline(topo, drill_cfg, "sofda", {}, popt).run();
      PipelinePoint pp;
      pp.workers = workers;
      pp.seconds = watch.seconds();
      pp.identical = series_identical(got, reference) && recoveries_identical(got, reference);
      if (!pp.identical) {
        std::cerr << "ERROR: pipelined drill at " << workers
                  << " workers diverged from the sequential driver\n";
      }
      std::cout << "pipeline workers=" << workers << ": "
                << sofe::util::Table::num(pp.seconds, 3) << "s, "
                << (pp.identical ? "bit-identical" : "DIVERGED") << "\n";
      panel.pipeline.push_back(pp);
    }
  }
  return panel;
}

void write_json(const std::vector<Panel>& panels, bool smoke, const char* path) {
  sofe::bench::BenchJsonWriter writer("fig13_failures", smoke);
  std::ostringstream& out = writer.body();
  out << ",\"solver\":\"sofda\",\"panels\":[";
  for (std::size_t pi = 0; pi < panels.size(); ++pi) {
    const auto& panel = panels[pi];
    out << (pi ? "," : "") << "{\"name\":\"" << panel.name
        << "\",\"requests\":" << panel.requests << ",\"points\":[";
    for (std::size_t i = 0; i < panel.points.size(); ++i) {
      const auto& pt = panel.points[i];
      out << (i ? "," : "") << "{\"failure_rate\":" << pt.failure_rate
          << ",\"budget\":" << pt.budget << ",\"failed_links\":" << pt.failed_links
          << ",\"recoveries\":" << pt.recoveries << ",\"escalations\":" << pt.escalations
          << ",\"rerouted_segments\":" << pt.rerouted_segments
          << ",\"moved_users\":" << pt.moved_users << ",\"dropped_users\":" << pt.dropped_users
          << ",\"infeasible_requests\":" << pt.infeasible_requests
          << ",\"mean_recovery_ms\":" << pt.mean_recovery_ms
          << ",\"max_recovery_ms\":" << pt.max_recovery_ms
          << ",\"quality_vs_scratch\":" << pt.quality_vs_scratch
          << ",\"final_cost\":" << pt.final_cost << ",\"unbounded_matches_scratch\":"
          << (pt.unbounded_matches_scratch ? "true" : "false")
          << ",\"bit_identical_to_reference\":"
          << (pt.identical_to_reference ? "true" : "false") << "}";
    }
    out << "],\"pipeline\":[";
    for (std::size_t i = 0; i < panel.pipeline.size(); ++i) {
      const auto& pp = panel.pipeline[i];
      out << (i ? "," : "") << "{\"workers\":" << pp.workers << ",\"seconds\":" << pp.seconds
          << ",\"bit_identical\":" << (pp.identical ? "true" : "false") << "}";
    }
    out << "]}";
  }
  out << "]";
  writer.finish(path);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::vector<Panel> panels;
  if (smoke) {
    std::cout << "=== Fig. 13 failure drill (smoke): testbed, rate x budget ===\n";
    sofe::online::OnlineConfig cfg;
    cfg.requests = 10;
    cfg.min_destinations = 2;
    cfg.max_destinations = 3;
    cfg.min_sources = 1;
    cfg.max_sources = 2;
    cfg.chain_length = 2;
    cfg.vms_per_dc = 1;
    cfg.seed = 17;
    panels.push_back(run_panel("Testbed (smoke)", sofe::topology::testbed14(), cfg,
                               /*rates=*/{0.1}, /*budgets=*/{0, -1},
                               /*worker_counts=*/{1, 2}, /*plan_seed=*/1713));
  } else {
    std::cout << "=== Fig. 13 failure drill: failure rate x migration budget ===\n";
    {
      sofe::online::OnlineConfig cfg;
      cfg.requests = 24;
      cfg.min_destinations = 2;
      cfg.max_destinations = 4;
      cfg.min_sources = 1;
      cfg.max_sources = 2;
      cfg.chain_length = 2;
      cfg.vms_per_dc = 1;
      cfg.seed = 17;
      panels.push_back(run_panel("(a) Testbed, 24 arrivals", sofe::topology::testbed14(), cfg,
                                 /*rates=*/{0.05, 0.1, 0.2}, /*budgets=*/{0, 1, 2, -1},
                                 /*worker_counts=*/{1, 2, 4}, /*plan_seed=*/1713));
    }
    {
      sofe::online::OnlineConfig cfg;
      cfg.requests = 20;
      cfg.min_destinations = 8;
      cfg.max_destinations = 12;
      cfg.min_sources = 4;
      cfg.max_sources = 6;
      cfg.chain_length = 3;
      cfg.seed = 12;
      panels.push_back(run_panel("(b) SoftLayer, 20 arrivals", sofe::topology::softlayer(), cfg,
                                 /*rates=*/{0.05, 0.1}, /*budgets=*/{0, 2, -1},
                                 /*worker_counts=*/{1, 2, 4}, /*plan_seed=*/4211));
    }
  }

  if (json) write_json(panels, smoke, "BENCH_resilience.json");

  for (const auto& panel : panels) {
    for (const auto& pt : panel.points) {
      // The acceptance gate: budget-unbounded recovery must BE the
      // from-scratch reference, bit for bit.
      if (!pt.unbounded_matches_scratch || !pt.identical_to_reference) return 1;
    }
    for (const auto& pp : panel.pipeline) {
      if (!pp.identical) return 1;
    }
  }
  return 0;
}
