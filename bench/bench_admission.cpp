// Capacity-constrained admission control sweep (DESIGN.md §14).
//
// Sweeps offered load (per-destination-stream demand against a fixed link
// capacity) across the admission policies — greedy, threshold-price,
// reject-costliest — on the paper's SoftLayer testbed with the ledger in
// ENFORCED mode, reporting what the paper's soft-pricing runs cannot: the
// accept rate, the demand turned away, and the utilization the hard gate
// holds the network at.  Every cell runs the sequential driver as the
// determinism reference and re-runs the identical stream through the
// epoch-pipelined service at each worker count, exiting nonzero if ANY
// accept/reject or cost series diverges bitwise — the same guard the §10
// pipeline bench applies, extended to the admission series — or if an
// enforced-mode run ever reports an overloaded link (the invariant
// LoadLedger::can_admit makes provable).
//
// Flags:
//   --smoke  tiny instance (CI: the bench_admission_smoke ctest entry, in
//            the TSan cell too); the JSON carries "smoke": true
//   --json   additionally write the measurements to BENCH_admission.json

#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sofe/online/pipeline.hpp"
#include "sofe/online/stream.hpp"

namespace {

using sofe::online::OnlineConfig;
using sofe::online::OnlineResult;

// The §14 determinism surface: cost series, accept/reject series, and every
// admission statistic, bitwise.  (Timing fields are excluded, as always.)
bool admission_series_identical(const OnlineResult& a, const OnlineResult& b) {
  if (a.accumulative_cost.size() != b.accumulative_cost.size()) return false;
  for (std::size_t i = 0; i < a.accumulative_cost.size(); ++i) {
    if (a.accumulative_cost[i] != b.accumulative_cost[i]) return false;  // bitwise
    if (a.per_request_cost[i] != b.per_request_cost[i]) return false;
  }
  if (a.accepted.size() != b.accepted.size()) return false;
  for (std::size_t i = 0; i < a.accepted.size(); ++i) {
    if (a.accepted[i] != b.accepted[i]) return false;
    if (a.decision_utilization[i] != b.decision_utilization[i]) return false;
  }
  return a.infeasible_requests == b.infeasible_requests &&
         a.rejected_requests == b.rejected_requests &&
         a.rejected_demand_mbps == b.rejected_demand_mbps &&
         a.accept_rate == b.accept_rate && a.overloaded_links == b.overloaded_links &&
         a.max_link_utilization == b.max_link_utilization &&
         a.mean_link_utilization == b.mean_link_utilization &&
         a.max_host_utilization == b.max_host_utilization &&
         a.mean_host_utilization == b.mean_host_utilization;
}

unsigned hardware_concurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<int> sweep_worker_counts() {
  const unsigned top = std::max(2u, hardware_concurrency());
  std::vector<int> counts;
  for (unsigned w = 1; w <= top; w *= 2) counts.push_back(static_cast<int>(w));
  if (static_cast<unsigned>(counts.back()) != top) counts.push_back(static_cast<int>(top));
  return counts;
}

// One (offered load, policy) cell: the sequential reference plus its
// pipeline re-runs.
struct SweepPoint {
  double demand_mbps = 0.0;
  std::string policy;
  double accept_rate = 0.0;
  int rejected = 0;
  int infeasible = 0;
  double rejected_demand_mbps = 0.0;
  double max_link_utilization = 0.0;
  double mean_link_utilization = 0.0;
  double max_host_utilization = 0.0;
  double mean_host_utilization = 0.0;
  double final_cost = 0.0;
  std::size_t overloaded = 0;  // must be 0 in enforced mode
  bool identical = true;       // pipeline series bitwise == sequential, all W
};

SweepPoint run_cell(const sofe::topology::Topology& topo, OnlineConfig cfg,
                    double demand, const std::string& policy,
                    const std::vector<int>& worker_counts) {
  cfg.demand_mbps = demand;
  cfg.admission = policy;
  SweepPoint pt;
  pt.demand_mbps = demand;
  pt.policy = policy;

  auto solver = sofe::api::make_solver("sofda");
  const OnlineResult ref = simulate(topo, cfg, *solver);
  pt.accept_rate = ref.accept_rate;
  pt.rejected = ref.rejected_requests;
  pt.infeasible = ref.infeasible_requests;
  pt.rejected_demand_mbps = ref.rejected_demand_mbps;
  pt.max_link_utilization = ref.max_link_utilization;
  pt.mean_link_utilization = ref.mean_link_utilization;
  pt.max_host_utilization = ref.max_host_utilization;
  pt.mean_host_utilization = ref.mean_host_utilization;
  pt.final_cost = ref.accumulative_cost.empty() ? 0.0 : ref.accumulative_cost.back();
  pt.overloaded = ref.overloaded_links;

  for (const int workers : worker_counts) {
    sofe::online::PipelineOptions popt;
    popt.workers = workers;
    const OnlineResult got = sofe::online::Pipeline(topo, cfg, "sofda", {}, popt).run();
    if (!admission_series_identical(ref, got)) {
      pt.identical = false;
      std::cerr << "ERROR: pipeline diverged from sequential (policy=" << policy
                << ", demand=" << demand << " Mb/s, workers=" << workers << ")\n";
    }
    if (got.overloaded_links != 0) {
      pt.overloaded = got.overloaded_links;
      std::cerr << "ERROR: enforced-mode run reports " << got.overloaded_links
                << " overloaded links (policy=" << policy << ", workers=" << workers << ")\n";
    }
  }
  return pt;
}

void print_sweep(const std::string& title, const std::vector<SweepPoint>& points) {
  std::cout << "\n" << title << "\n";
  sofe::util::Table table({"demand Mb/s", "policy", "accept", "rej", "inf",
                           "rej Mb/s", "max util", "mean util", "max host", "cost",
                           "overl", "vs seq"});
  for (const auto& pt : points) {
    table.add_row({sofe::util::Table::num(pt.demand_mbps, 1), pt.policy,
                   sofe::util::Table::num(pt.accept_rate, 3), std::to_string(pt.rejected),
                   std::to_string(pt.infeasible),
                   sofe::util::Table::num(pt.rejected_demand_mbps, 1),
                   sofe::util::Table::num(pt.max_link_utilization, 3),
                   sofe::util::Table::num(pt.mean_link_utilization, 3),
                   sofe::util::Table::num(pt.max_host_utilization, 3),
                   sofe::util::Table::num(pt.final_cost, 2), std::to_string(pt.overloaded),
                   pt.identical ? "bit-identical" : "DIVERGED"});
  }
  table.print();
  std::cout << "(enforced capacity: overl must be 0 at every load; accept rate falls as\n"
            << " offered load rises because the hard gate, not the price, says no)\n";
}

void write_json(const std::vector<SweepPoint>& points, bool smoke, const char* path) {
  sofe::bench::BenchJsonWriter writer("admission", smoke);
  std::ostringstream& out = writer.body();
  out << ",\"hardware_concurrency\":" << hardware_concurrency() << ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& pt = points[i];
    out << (i ? "," : "") << "{\"demand_mbps\":" << pt.demand_mbps << ",\"policy\":\""
        << pt.policy << "\",\"accept_rate\":" << pt.accept_rate
        << ",\"rejected\":" << pt.rejected << ",\"infeasible\":" << pt.infeasible
        << ",\"rejected_demand_mbps\":" << pt.rejected_demand_mbps
        << ",\"max_link_utilization\":" << pt.max_link_utilization
        << ",\"mean_link_utilization\":" << pt.mean_link_utilization
        << ",\"max_host_utilization\":" << pt.max_host_utilization
        << ",\"mean_host_utilization\":" << pt.mean_host_utilization
        << ",\"final_cost\":" << pt.final_cost << ",\"overloaded_links\":" << pt.overloaded
        << ",\"bit_identical\":" << (pt.identical ? "true" : "false") << "}";
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

  std::cout << (smoke ? "=== Admission control (smoke): offered load x policy ===\n"
                      : "=== Admission control: offered load x policy, SoftLayer ===\n");

  // The capacity-bound scenario: small link budget so rising per-stream
  // demand actually saturates links mid-stream, departures churning room
  // back (the regime where the policies differ).
  OnlineConfig cfg;
  cfg.requests = smoke ? 10 : 40;
  cfg.min_destinations = smoke ? 2 : 6;
  cfg.max_destinations = smoke ? 4 : 10;
  cfg.min_sources = 2;
  cfg.max_sources = 3;
  cfg.chain_length = 2;
  cfg.vms_per_dc = smoke ? 2 : 4;
  cfg.link_capacity = smoke ? 20.0 : 100.0;
  cfg.host_capacity = smoke ? 4.0 : 8.0;
  cfg.holding_arrivals = smoke ? 4 : 10;
  cfg.epoch_size = 4;
  cfg.seed = 12;

  const std::vector<double> demands =
      smoke ? std::vector<double>{2.0, 5.0} : std::vector<double>{2.0, 5.0, 10.0, 20.0};
  const std::vector<std::string> policies{"greedy", "threshold-price,theta=1.5",
                                          "reject-costliest,budget=250"};
  const std::vector<int> workers = smoke ? std::vector<int>{1, 2} : sweep_worker_counts();

  std::vector<SweepPoint> points;
  for (const double demand : demands) {
    for (const auto& policy : policies) {
      points.push_back(run_cell(sofe::topology::softlayer(), cfg, demand, policy, workers));
    }
  }
  print_sweep(smoke ? "offered load x policy (smoke)" : "offered load x policy", points);

  if (json) write_json(points, smoke, "BENCH_admission.json");

  for (const auto& pt : points) {
    if (!pt.identical || pt.overloaded != 0) return 1;
  }
  return 0;
}
