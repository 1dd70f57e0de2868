// SOFE service benchmark program: the online admission service
// (online::Pipeline::run) on four named workloads.
//
//   service_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-dir DIR] [--record]
//
// --trace 0 runs the timed loop: cycles over the workload's request
// streams, one pass (fresh topology + Pipeline, then run()) per stream in a
// forked process, until S seconds have elapsed.  --trace 1 runs the traced
// split of stream 0 instead: one Pipeline run with a ReportAccumulator
// sink, then single-threaded replays of the same stream built only from
// public library calls, with spans off and on, whose series must reproduce
// the pipeline's bitwise.  --record runs every stream once through the
// pipeline and once through the replay and prints their digests
// (run.py --record-digests).
//
// The last stdout line is "RESULT <json>"; run.py turns it into the
// benchmark's result line and checks the digests against digests.json.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sofe/api/registry.hpp"
#include "sofe/api/report.hpp"
#include "sofe/api/solver.hpp"
#include "sofe/core/pricing.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/online/pipeline.hpp"
#include "sofe/online/stream.hpp"
#include "sofe/resilience/failure_plan.hpp"
#include "sofe/topology/topology.hpp"
#include "sofe/util/rng.hpp"
#include "sofe/util/stopwatch.hpp"
#include "trace.hpp"

namespace {

using namespace sofe;
using perfbench::ScopedSpan;
using perfbench::Tracer;

// ----------------------------------------------------------- settings ---

constexpr int kWorkers = 2;       // pricing workers; + the commit thread = 3
constexpr int kEpochSize = 8;
constexpr int kLookahead = 1;
constexpr int kSetupReps = 15;    // extra set-ups per run, for the setup_s median

api::SolverOptions solver_options() {
  api::SolverOptions opt;  // defaults, single-threaded solves
  opt.threads = 1;
  return opt;
}

online::PipelineOptions pipeline_options() {
  online::PipelineOptions popt;
  popt.workers = kWorkers;
  popt.lookahead_epochs = kLookahead;
  return popt;
}

// ---------------------------------------------------------- workloads ---

struct Workload {
  std::string name;
  std::string solver;
  std::function<topology::Topology()> make_topology;
  /// Stream 0's configuration; stream k adds k to the request seed.
  online::OnlineConfig cfg;
  /// Independent request streams a run serves, one per pass, cycled.
  int streams = 1;
  /// Failure drill: one link failure per `fail_every` arrivals, each
  /// healing `heal_after` arrivals later (0 = no drill).  Stream k adds k
  /// to the plan seed.
  int fail_every = 0;
  int heal_after = 0;
  std::uint64_t plan_seed = 0;
};

online::OnlineConfig base_config(int requests, std::uint64_t seed) {
  online::OnlineConfig cfg;
  cfg.requests = requests;
  cfg.epoch_size = kEpochSize;
  cfg.seed = seed;
  return cfg;
}

/// The four workloads.  `seed` selects the request and failure-plan seeds
/// of every stream (base + 1000 * seed + stream); seed 0's stream 0 is the
/// workload's reference stream.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  seed *= 1000;
  Workload w;
  w.name = name;
  w.solver = "sofda";
  if (name == "softlayer-churn") {
    // Fig. 12 request mix on SoftLayer with departures: pricing and
    // pipeline speculation dominate.
    w.make_topology = [] { return topology::softlayer(); };
    w.cfg = base_config(400, 12 + seed);
    w.streams = 4;
    w.cfg.min_sources = 8;
    w.cfg.max_sources = 12;
    w.cfg.min_destinations = 13;
    w.cfg.max_destinations = 17;
    w.cfg.chain_length = 3;
    w.cfg.holding_arrivals = 16;
  } else if (name == "inet-closure" || name == "inet-sharded") {
    // 2000-node Inet core: closure publish and the graph-sized Steiner step
    // dominate; the sharded variant builds the closure per domain and
    // exchanges rows over the MessageBus.
    w.make_topology = [] { return topology::inet(2000, 4000, 8, 21); };
    w.cfg = base_config(100, 21 + seed);
    w.streams = 3;
    w.cfg.min_sources = 3;
    w.cfg.max_sources = 5;
    w.cfg.min_destinations = 8;
    w.cfg.max_destinations = 12;
    w.cfg.link_capacity = 400.0;
    w.cfg.holding_arrivals = 16;
    if (name == "inet-sharded") w.solver = "dist/k=4";
  } else if (name == "cogent-drill") {
    // Recurring sources, enforced admission and a link-failure drill on
    // Cogent: writes (failures, heals, recoveries, rejections) beside reads.
    w.make_topology = [] { return topology::cogent(); };
    w.cfg = base_config(132, 16 + seed);
    w.streams = 4;
    w.cfg.min_sources = 10;
    w.cfg.max_sources = 30;
    w.cfg.min_destinations = 20;
    w.cfg.max_destinations = 60;
    w.cfg.holding_arrivals = 10;
    w.cfg.source_pool = 40;
    w.cfg.source_alpha = 0.8;
    w.cfg.admission = "greedy";
    w.cfg.host_capacity = 20.0;
    w.cfg.recovery.max_moved_users = 4;
    w.fail_every = 33;
    w.heal_after = 24;
    w.plan_seed = 0x5eed0000ULL + 16 + seed;
  } else {
    throw std::invalid_argument("unknown workload \"" + name +
                                "\" (softlayer-churn, inet-closure, cogent-drill, inet-sharded)");
  }
  return w;
}

/// Links whose loss leaves the topology connected (not bridges).
std::vector<graph::EdgeId> redundant_links(const graph::Graph& g) {
  std::vector<graph::EdgeId> out;
  std::vector<char> seen;
  std::vector<graph::NodeId> stack;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const graph::Edge& edge = g.edge(e);
    seen.assign(static_cast<std::size_t>(g.node_count()), 0);
    stack.assign(1, edge.u);
    seen[static_cast<std::size_t>(edge.u)] = 1;
    while (!stack.empty() && !seen[static_cast<std::size_t>(edge.v)]) {
      const graph::NodeId x = stack.back();
      stack.pop_back();
      for (const graph::Arc& a : g.neighbors(x)) {
        if (a.edge == e || seen[static_cast<std::size_t>(a.to)]) continue;
        seen[static_cast<std::size_t>(a.to)] = 1;
        stack.push_back(a.to);
      }
    }
    if (seen[static_cast<std::size_t>(edge.v)]) out.push_back(e);
  }
  return out;
}

/// One link failure every `fail_every` arrivals, each healing `heal_after`
/// arrivals later, so at most one link is down at a time.  The links are
/// distinct and drawn from the plan seed among links that are not bridges:
/// every failure leaves a detour, so recovery reroutes and re-embeds
/// instead of re-homing destinations cut off from every source — whose
/// cost grows with the stranded set and would make throughput a function
/// of which links the seed happens to pick.
resilience::FailurePlan make_plan(const Workload& w, const topology::Topology& topo,
                                    std::uint64_t plan_seed) {
  resilience::FailurePlan plan;
  if (w.fail_every <= 0) return plan;
  const int n_fail = w.cfg.requests / w.fail_every;
  const std::vector<graph::EdgeId> links = redundant_links(topo.g);
  util::Rng rng(plan_seed);
  const auto picks = rng.sample_without_replacement(links.size(), static_cast<std::size_t>(n_fail));
  for (int i = 0; i < n_fail; ++i) {
    resilience::FailureEvent ev;
    ev.target = resilience::FailureEvent::Target::kLink;
    ev.id = links[picks[static_cast<std::size_t>(i)]];
    ev.fail_at = w.fail_every / 2 + i * w.fail_every;
    const int heal = ev.fail_at + w.heal_after;
    ev.heal_at = heal < w.cfg.requests ? heal : -1;
    plan.events.push_back(ev);
  }
  return plan;
}

/// One stream's inputs: its configuration and the failure plan it points at.
struct Stream {
  online::OnlineConfig cfg;
  resilience::FailurePlan plan;
};
using Streams = std::vector<std::unique_ptr<Stream>>;

Streams make_streams(const Workload& w, const topology::Topology& topo) {
  Streams out;
  for (int k = 0; k < w.streams; ++k) {
    auto st = std::make_unique<Stream>();
    st->cfg = w.cfg;
    st->cfg.seed += static_cast<std::uint64_t>(k);
    st->plan = make_plan(w, topo, w.plan_seed + static_cast<std::uint64_t>(k));
    if (!st->plan.empty()) st->cfg.failures = &st->plan;
    out.push_back(std::move(st));
  }
  return out;
}

// ------------------------------------------------------------- digest ---

/// FNV-1a over the deterministic outputs: cost series, accept series,
/// infeasible count, overloaded links and the recovery reports without
/// their wall time.  Doubles are hashed by bit pattern.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string digest_of(const online::OnlineResult& r) {
  Digest d;
  d.add(r.per_request_cost.size());
  for (double c : r.per_request_cost) d.add(c);
  for (double c : r.accumulative_cost) d.add(c);
  for (std::uint8_t a : r.accepted) d.add(a);
  d.add(r.infeasible_requests);
  d.add(r.overloaded_links);
  d.add(r.recoveries.size());
  for (const auto& rep : r.recoveries) {
    d.add(rep.epoch_first);
    d.add(rep.slot);
    d.add(rep.rerouted_segments);
    d.add(rep.moved_users);
    d.add(rep.dropped_users);
    d.add(rep.escalated);
    d.add(rep.capacity_dropped);
    d.add(rep.repaired_cost);
    d.add(rep.scratch_cost);
    d.add(rep.chosen_cost);
  }
  return d.hex();
}

/// Structural checks every result must pass; appends one message per fault.
void check_result(const Workload& w, const online::OnlineResult& r,
                  std::vector<std::string>& errors) {
  const auto n = static_cast<std::size_t>(w.cfg.requests);
  if (r.per_request_cost.size() != n || r.accumulative_cost.size() != n ||
      r.accepted.size() != n || r.arrival_seconds.size() != n) {
    errors.push_back("result series length differs from the request count");
    return;
  }
  double sum = 0.0;
  int admitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double c = r.per_request_cost[i];
    if (!std::isfinite(c) || c < 0.0 || (r.accepted[i] != 0) != (c > 0.0)) {
      errors.push_back("slot " + std::to_string(i) + ": cost/accept mismatch");
      return;
    }
    sum += c;
    admitted += r.accepted[i];
    if (r.accumulative_cost[i] != sum) {
      errors.push_back("slot " + std::to_string(i) + ": accumulative cost is not the prefix sum");
      return;
    }
  }
  if (admitted + r.rejected_requests + r.infeasible_requests != w.cfg.requests) {
    errors.push_back("admitted + rejected + infeasible != arrivals");
  }
  if (!w.cfg.admission.empty() && r.overloaded_links != 0) {
    errors.push_back("enforced admission left " + std::to_string(r.overloaded_links) +
                     " overloaded links");
  }
}

// -------------------------------------------------------------- stats ---

/// Nearest-rank percentile (the ReportAccumulator definition).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<long long>(std::ceil(q * static_cast<double>(v.size())));
  const auto i = static_cast<std::size_t>(std::max(1LL, rank) - 1);
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct ChildOutput {
  std::string text;    // what the body returned
  double rss_mb = 0.0; // the child's peak resident set
};

/// Runs `body` in a forked child process and returns its text and peak
/// RSS, so every pass starts from the same fresh process and its peak
/// memory is that of a process running only this workload.  The caller
/// must not have started any thread (fork copies only the calling one).
ChildOutput run_in_child(const std::function<std::string()>& body) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(stdout);
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string text;
    try {
      text = body();
    } catch (const std::exception& e) {
      text = std::string("exception: ") + e.what();
      code = 1;
    }
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t k = write(fds[1], text.data() + sent, text.size() - sent);
      if (k <= 0) _exit(1);
      sent += static_cast<std::size_t>(k);
    }
    _exit(code);
  }
  close(fds[1]);
  ChildOutput out;
  char buf[4096];
  for (ssize_t k; (k = read(fds[0], buf, sizeof buf)) > 0;) {
    out.text.append(buf, static_cast<std::size_t>(k));
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("pass process failed: " + out.text);
  }
  out.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
  return out;
}

// ------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::cout << "\n" << title << "\n";
  for (const Metric& m : ms) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-40s %16.6f  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << buf;
  }
}

// ------------------------------------------------------- timed passes ---

struct Pass {
  double setup_s = 0.0;
  double run_s = 0.0;
  online::OnlineResult result;
};

/// Set-up (topology construction + Pipeline constructor) then run().
Pass timed_pass(const Workload& w, const online::OnlineConfig& cfg) {
  Pass p;
  util::Stopwatch watch;
  const topology::Topology topo = w.make_topology();
  online::Pipeline pipeline(topo, cfg, w.solver, solver_options(), pipeline_options());
  p.setup_s = watch.seconds();
  watch.reset();
  p.result = pipeline.run();
  p.run_s = watch.seconds();
  return p;
}

double setup_only(const Workload& w, const online::OnlineConfig& cfg) {
  util::Stopwatch watch;
  const topology::Topology topo = w.make_topology();
  const online::Pipeline pipeline(topo, cfg, w.solver, solver_options(), pipeline_options());
  return watch.seconds();
}

/// What one timed pass reports back from its process.
struct PassSummary {
  std::string digest;
  double setup_s = 0.0, run_s = 0.0, cost_sum = 0.0;
  int arrivals = 0, admitted = 0, rejected = 0, infeasible = 0, stale = 0;
  std::vector<double> solve_ms;  // per-arrival solve latency
  double rss_mb = 0.0;
  std::vector<std::string> errors;
};

/// Runs one pass and renders its summary as text: a line of fields, a line
/// of per-arrival solve latencies, then one "E <message>" line per failed
/// check.
std::string pass_text(const Workload& w, const online::OnlineConfig& cfg) {
  const Pass p = timed_pass(w, cfg);
  const online::OnlineResult& r = p.result;
  std::vector<std::string> errors;
  check_result(w, r, errors);
  int admitted = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < r.accepted.size(); ++i) {
    admitted += r.accepted[i];
    sum += r.per_request_cost[i];
  }
  std::ostringstream out;
  out.precision(17);
  out << digest_of(r) << ' ' << p.setup_s << ' ' << p.run_s << ' ' << sum << ' '
      << r.per_request_cost.size() << ' ' << admitted << ' ' << r.rejected_requests << ' '
      << r.infeasible_requests << ' ' << r.stale_repriced << '\n';
  for (double t : r.arrival_seconds) out << t * 1e3 << ' ';
  out << '\n';
  for (const std::string& e : errors) out << "E " << e << '\n';
  return out.str();
}

PassSummary parse_pass(const ChildOutput& child) {
  PassSummary s;
  std::istringstream in(child.text);
  in >> s.digest >> s.setup_s >> s.run_s >> s.cost_sum >> s.arrivals >> s.admitted >> s.rejected >>
      s.infeasible >> s.stale;
  s.solve_ms.resize(static_cast<std::size_t>(std::max(s.arrivals, 0)));
  for (double& t : s.solve_ms) in >> t;
  if (!in || s.arrivals <= 0) throw std::runtime_error("malformed pass summary: " + child.text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("E ", 0) == 0) s.errors.push_back(line.substr(2));
  }
  s.rss_mb = child.rss_mb;
  return s;
}

// ------------------------------------------------------------- replay ---

/// Layer tallies the replay collects next to its spans.
struct ReplayCounts {
  std::size_t open_epoch_calls = 0;
  std::size_t open_epoch_delta_edges = 0;
  // closure (publish reports on the SOFDA path, session reports on dist)
  std::size_t closure_calls = 0;
  std::size_t closure_hits = 0;
  std::size_t closure_repairs = 0;
  std::size_t closure_delta_edges = 0;
  std::size_t closure_hubs_added = 0;
  std::size_t closure_peak_bytes = 0;
  std::size_t row_hits = 0;
  std::size_t rows_retained = 0;
  std::size_t rows_evicted = 0;
  // pricing
  std::size_t pricing_calls = 0;
  std::size_t chains_hit = 0;
  std::size_t chains_repriced = 0;
  std::size_t pricing_flushes = 0;
  // embedding
  std::size_t candidate_chains = 0;
  std::size_t deployed_chains = 0;
  std::size_t conflicts = 0;
  std::size_t conflict_dropped = 0;
  std::size_t rehomed = 0;
  // recovery / dist
  std::size_t reembed_calls = 0;
  double dist_closure_s = 0.0;
  std::size_t dist_messages = 0;
  std::size_t dist_payload_bytes = 0;
  std::size_t dist_rounds = 0;

  void add_closure(const api::SolveReport& r) {
    ++closure_calls;
    closure_hits += r.closure_cache_hit ? 1 : 0;
    closure_repairs += r.closure_repaired ? 1 : 0;
    closure_delta_edges += static_cast<std::size_t>(r.closure_delta_edges);
    closure_hubs_added += static_cast<std::size_t>(r.closure_hubs_added);
    closure_peak_bytes = std::max(closure_peak_bytes, r.closure_bytes);
    row_hits += static_cast<std::size_t>(r.closure_row_hits);
    rows_retained += static_cast<std::size_t>(r.closure_rows_retained);
    rows_evicted += static_cast<std::size_t>(r.closure_rows_evicted);
  }
  void add_sofda(const core::SofdaStats& s) {
    candidate_chains += static_cast<std::size_t>(s.candidate_chains);
    deployed_chains += static_cast<std::size_t>(s.deployed_chains);
    conflicts += static_cast<std::size_t>(s.conflicts.total_resolved());
    conflict_dropped += static_cast<std::size_t>(s.conflicts.dropped);
    rehomed += static_cast<std::size_t>(s.rehomed_destinations);
  }
};

struct Replay {
  online::OnlineResult result;
  double wall_s = 0.0;  // the epoch loop, stream construction excluded
  ReplayCounts counts;
  std::vector<std::string> invalid;  // core::validate failures
};

/// The 1-worker epoch schedule, single-threaded, from public calls only.
/// Per epoch: retire, open_epoch, publish over the VMs plus the epoch's
/// sources, then per slot stage -> price_epoch -> sofda_from_candidates
/// (shorten off) -> shorten_pass_through, then commit_epoch.  On a dist
/// workload each slot is one Solver::solve on a dist/k session instead.
Replay replay(const Workload& w, const topology::Topology& topo, const online::OnlineConfig& cfg,
              Tracer& tr) {
  Replay out;
  ReplayCounts& c = out.counts;
  const api::SolverOptions opt = solver_options();
  online::ArrivalStream stream(topo, cfg);
  std::unique_ptr<api::Solver> recovery;
  if (stream.has_failures()) {
    recovery = api::make_solver(w.solver, opt);
    stream.set_recovery_embedder([&](const core::Problem& p) {
      const ScopedSpan span(tr, "resilience.reembed");
      ++c.reembed_calls;
      return recovery->solve(p);
    });
  }
  const bool sharded = w.solver != "sofda";
  const std::unique_ptr<api::Solver> dist_solver =
      sharded ? api::make_solver(w.solver, opt) : nullptr;
  api::ClosureSession publisher;
  core::PricingSession pricing;
  const core::AlgoOptions price_opt = opt.algo();
  core::AlgoOptions embed_opt = opt.algo();
  embed_opt.shorten = false;  // shortening is timed as its own layer
  api::ClosureRequest req;
  req.threads = opt.threads;
  req.incremental = opt.incremental;
  req.bounded = false;
  req.retention = opt.retention_rows;

  std::vector<graph::EdgeCostDelta> deltas;
  std::vector<core::NodeId> hubs;
  std::vector<std::uint8_t> mark;
  core::Cost accumulated = 0.0;
  const int total = stream.requests();
  online::OnlineResult& res = out.result;
  res.algorithm = w.solver;
  res.arrival_seconds.assign(static_cast<std::size_t>(total), 0.0);

  const util::Stopwatch wall;
  for (int first = 0; first < total;) {
    if (!sharded) {
      const ScopedSpan span(tr, "closure.retire");
      publisher.retire();
    }
    int count = 0;
    deltas.clear();
    {
      const ScopedSpan span(tr, "online.open_epoch");
      bool node_moved = false;
      count = stream.open_epoch(first, &deltas, &node_moved);
    }
    ++c.open_epoch_calls;
    c.open_epoch_delta_edges += deltas.size();

    api::ClosureEpoch epoch;
    if (!sharded) {
      const core::Problem& master = stream.master();
      hubs = master.vms();
      mark.assign(static_cast<std::size_t>(master.network.node_count()), 0);
      for (core::NodeId v : hubs) mark[static_cast<std::size_t>(v)] = 1;
      for (int r = first; r < first + count; ++r) {
        for (core::NodeId s : stream.request(r).sources) {
          if (!mark[static_cast<std::size_t>(s)]) {
            mark[static_cast<std::size_t>(s)] = 1;
            hubs.push_back(s);
          }
        }
      }
      api::SolveReport rep;
      {
        const ScopedSpan span(tr, "closure.publish");
        epoch = publisher.publish(master.network, hubs, req, rep);
      }
      c.add_closure(rep);
    }

    std::vector<core::ServiceForest> forests;
    forests.reserve(static_cast<std::size_t>(count));
    for (int r = first; r < first + count; ++r) {
      const core::Problem* p = nullptr;
      {
        const ScopedSpan span(tr, "online.stage", r);
        p = &stream.stage(r);
      }
      core::ServiceForest f;
      if (sharded) {
        {
          const ScopedSpan span(tr, "dist.solve", r);
          f = dist_solver->solve(*p);
        }
        const api::SolveReport& rep = dist_solver->report();
        c.add_closure(rep);
        c.add_sofda(rep.sofda);
        c.dist_closure_s += rep.closure_seconds;
        c.dist_messages += rep.messages;
        c.dist_payload_bytes += rep.payload_bytes;
        c.dist_rounds += static_cast<std::size_t>(rep.rounds);
      } else {
        std::vector<core::PricedChain> candidates;
        core::PricingTally tally;
        {
          const ScopedSpan span(tr, "pricing.price_epoch", r);
          candidates = pricing.price_epoch(*p, *epoch.closure, p->sources, epoch.generation,
                                           epoch.update, price_opt, opt.threads, &tally);
        }
        ++c.pricing_calls;
        c.chains_hit += static_cast<std::size_t>(tally.hits);
        c.chains_repriced += static_cast<std::size_t>(tally.repriced);
        c.pricing_flushes += tally.flushed ? 1 : 0;
        core::SofdaStats stats;
        {
          const ScopedSpan span(tr, "core.steiner_deploy", r);
          f = core::sofda_from_candidates(*p, *epoch.closure, candidates, embed_opt, &stats);
        }
        c.add_sofda(stats);
        {
          const ScopedSpan span(tr, "core.shorten", r);
          core::shorten_pass_through(*p, f);
        }
      }
      if (!f.empty()) {
        const ScopedSpan span(tr, "bench.validate", r);
        const core::ValidationReport v = core::validate(*p, f);
        if (!v.ok) out.invalid.push_back("slot " + std::to_string(r) + ": " + v.summary());
      }
      forests.push_back(std::move(f));
    }

    std::vector<online::SlotOutcome> outcomes;
    {
      const ScopedSpan span(tr, "online.commit_epoch");
      outcomes = stream.commit_epoch(first, forests);
    }
    for (const online::SlotOutcome& o : outcomes) {
      const bool admitted = o.status == online::SlotOutcome::Status::kAdmitted;
      if (o.status == online::SlotOutcome::Status::kInfeasible) ++res.infeasible_requests;
      if (admitted) accumulated += o.cost;
      res.per_request_cost.push_back(admitted ? o.cost : 0.0);
      res.accumulative_cost.push_back(accumulated);
      res.accepted.push_back(admitted ? 1 : 0);
      res.decision_utilization.push_back(o.decision_utilization);
    }
    first += count;
  }
  if (!sharded) publisher.retire();
  out.wall_s = wall.seconds();
  stream.finish(res);
  return out;
}

// -------------------------------------------------------------- modes ---

struct RunOutput {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> digests;  // per stream, in stream order
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  bool record = false;
  std::string trace_dir = ".";
};

/// Cycles over the workload's streams, one pass per stream and each pass
/// in a fresh process, until `seconds` have elapsed (whole cycles only, so
/// every stream weighs the same).  Timing uses each stream's fastest pass —
/// the machine's speed drifts by tens of percent within seconds, and a slow
/// spell only ever adds time — so throughput is the streams' arrivals over
/// their fastest pass times and the latency percentiles pool those passes'
/// samples.  Cost and admitted share sum over the distinct streams.
RunOutput run_timed(const Workload& w, const Streams& streams, double seconds) {
  RunOutput out;
  const std::size_t n_streams = streams.size();
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    setup.push_back(setup_only(w, streams[static_cast<std::size_t>(i) % n_streams]->cfg));
  }

  std::vector<std::vector<PassSummary>> by_stream(n_streams);
  std::vector<double> rss;
  const util::Stopwatch clock;
  int cycles = 0;
  double cycle_s = 0.0;
  while (cycles == 0 || clock.seconds() + 0.5 * cycle_s < seconds) {
    const util::Stopwatch cycle_watch;
    for (std::size_t k = 0; k < n_streams; ++k) {
      const online::OnlineConfig& cfg = streams[k]->cfg;
      PassSummary s = parse_pass(run_in_child([&] { return pass_text(w, cfg); }));
      for (const std::string& e : s.errors) out.errors.push_back(e);
      if (!by_stream[k].empty() && s.digest != by_stream[k].front().digest) {
        out.errors.push_back("stream " + std::to_string(k) + " digest " + s.digest +
                             " differs from its first pass's " + by_stream[k].front().digest);
      }
      setup.push_back(s.setup_s);
      rss.push_back(s.rss_mb);
      out.attempted += s.arrivals;
      std::printf("cycle %d stream %zu: %d arrivals in %.3f s (%.2f/s), setup %.4f s, admitted %d, "
                  "rejected %d, infeasible %d, stale %d, rss %.1f MB, digest %s\n",
                  cycles + 1, k, s.arrivals, s.run_s, s.arrivals / s.run_s, s.setup_s, s.admitted,
                  s.rejected, s.infeasible, s.stale, s.rss_mb, s.digest.c_str());
      by_stream[k].push_back(std::move(s));
    }
    cycle_s = cycle_watch.seconds();
    ++cycles;
  }

  double arrivals = 0.0, time = 0.0, cost = 0.0, admitted = 0.0, failed = 0.0;
  std::vector<double> solve_ms;
  for (const auto& passes : by_stream) {
    const PassSummary& first = passes.front();
    const PassSummary& fastest = *std::min_element(
        passes.begin(), passes.end(),
        [](const PassSummary& a, const PassSummary& b) { return a.run_s < b.run_s; });
    arrivals += first.arrivals;
    time += fastest.run_s;
    solve_ms.insert(solve_ms.end(), fastest.solve_ms.begin(), fastest.solve_ms.end());
    cost += first.cost_sum;
    admitted += first.admitted;
    failed += first.infeasible + first.rejected;
    out.digests.push_back(first.digest);
  }
  out.metrics = {
      {"arrivals_per_s", arrivals / time, "1/s"},
      {"solve_ms_p50", percentile(solve_ms, 0.50), "ms"},
      {"solve_ms_p95", percentile(solve_ms, 0.95), "ms"},
      {"cost_per_admitted", admitted > 0.0 ? cost / admitted : 0.0, "cost"},
      {"admitted_share", admitted / arrivals, "ratio"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", median(rss), "MB"},
  };
  print_table("end-to-end (" + w.name + ", " + std::to_string(cycles) + " cycles of " +
                  std::to_string(n_streams) + " streams, " + std::to_string(solve_ms.size()) +
                  " solve samples)",
              out.metrics);
  // Printed for the reader; not a benchmark metric because it is exactly 0
  // on every soft-capacity workload.
  char buf[128];
  std::snprintf(buf, sizeof buf, "  %-40s %16.6f  %s\n", "failed_share", failed / arrivals,
                "ratio");
  std::cout << buf;
  return out;
}

std::string file_stem(const Args& a) {
  return (std::filesystem::path(a.trace_dir) / (a.workload + ".seed" + std::to_string(a.seed)))
      .string();
}

RunOutput run_traced(const Workload& w, const online::OnlineConfig& cfg,
                     const topology::Topology& topo, const Args& args) {
  RunOutput out;
  const util::Stopwatch clock;

  // 1. The service with a ReportAccumulator sink attached.
  api::ReportAccumulator acc;
  online::OnlineResult pr;
  {
    online::Pipeline pipeline(topo, cfg, w.solver, solver_options(), pipeline_options());
    pipeline.set_report_sink(&acc);
    pr = pipeline.run();
  }
  check_result(w, pr, out.errors);
  out.digests.push_back(digest_of(pr));
  out.attempted += static_cast<long long>(pr.per_request_cost.size());

  // 2. Replay pairs (spans off, spans on) while time remains, alternating
  //    which runs first so warm-up cost cancels in the median overhead; the
  //    first traced replay supplies the split.
  std::vector<double> overhead;
  std::unique_ptr<Tracer> traced;
  Replay first_on;
  do {
    Tracer off(false);
    const bool off_first = overhead.size() % 2 == 0;
    Replay a, b;
    if (off_first) a = replay(w, topo, cfg, off);
    auto on = std::make_unique<Tracer>(true);  // span times start at its replay
    b = replay(w, topo, cfg, *on);
    if (!off_first) a = replay(w, topo, cfg, off);
    for (const Replay* rp : std::initializer_list<const Replay*>{&a, &b}) {
      const std::string d = digest_of(rp->result);
      if (d != out.digests.front()) {
        out.errors.push_back("replay digest " + d + " differs from the pipeline's " +
                             out.digests.front());
      }
      for (const std::string& e : rp->invalid) out.errors.push_back("invalid forest: " + e);
      out.attempted += static_cast<long long>(rp->result.per_request_cost.size());
    }
    overhead.push_back((b.wall_s - a.wall_s) / a.wall_s);
    std::printf("replay pair %zu: spans off %.3f s, spans on %.3f s\n", overhead.size(), a.wall_s,
                b.wall_s);
    if (!traced) {
      traced = std::move(on);
      first_on = std::move(b);
    }
  } while (clock.seconds() < args.seconds);

  const ReplayCounts& c = first_on.counts;
  const auto layers = traced->layer_times();
  const auto self = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self;
  };
  const auto n = static_cast<double>(pr.per_request_cost.size());
  const auto share = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto num = [](std::size_t v) { return static_cast<double>(v); };

  double recovery_s = 0.0, recovery_max = 0.0;
  std::size_t escalated = 0, moved = 0, dropped = 0;
  for (const auto& rep : first_on.result.recoveries) {
    recovery_s += rep.seconds;
    recovery_max = std::max(recovery_max, rep.seconds);
    escalated += rep.escalated ? 1 : 0;
    moved += static_cast<std::size_t>(rep.moved_users);
    dropped += static_cast<std::size_t>(rep.dropped_users);
  }
  const double stale = pr.stale_repriced;
  const double spec = pr.speculative_commits;

  out.metrics = {
      {"online.pipeline.publish_s", pr.publish_seconds, "s"},
      {"online.pipeline.queue_wait_ms_p50", acc.queue_wait().p50 * 1e3, "ms"},
      {"online.pipeline.queue_wait_ms_p95", acc.queue_wait().p95 * 1e3, "ms"},
      {"online.pipeline.commit_ms_p50", acc.commit().p50 * 1e3, "ms"},
      {"online.pipeline.stale_repriced", stale, "count"},
      {"online.pipeline.stale_share", share(stale, n), "ratio"},
      {"online.pipeline.speculative_commits", spec, "count"},
      {"online.pipeline.speculation_yield", share(spec, spec + stale), "ratio"},
      {"online.open_epoch.busy_s", self("online.open_epoch"), "s"},
      {"online.open_epoch.calls", num(c.open_epoch_calls), "count"},
      {"online.open_epoch.delta_edges", num(c.open_epoch_delta_edges), "count"},
      {"online.commit_epoch.busy_s", self("online.commit_epoch"), "s"},
      {"closure.publish.busy_s", self("closure.publish") + self("closure.retire"), "s"},
      // On dist workloads the closure rows below come from the sharded
      // session's acquires; nothing is published.
      {"closure.publish.calls", num(layers.count("closure.publish") ? c.closure_calls : 0),
       "count"},
      {"closure.hits", num(c.closure_hits), "count"},
      {"closure.repairs", num(c.closure_repairs), "count"},
      {"closure.rebuilds", num(c.closure_calls - c.closure_hits - c.closure_repairs), "count"},
      {"closure.delta_edges", num(c.closure_delta_edges), "count"},
      {"closure.hubs_added", num(c.closure_hubs_added), "count"},
      {"closure.peak_bytes", num(c.closure_peak_bytes), "bytes"},
      {"closure.row_hits", num(c.row_hits), "count"},
      {"closure.rows_retained", num(c.rows_retained), "count"},
      {"closure.rows_evicted", num(c.rows_evicted), "count"},
      {"pricing.busy_s", self("pricing.price_epoch"), "s"},
      {"pricing.calls", num(c.pricing_calls), "count"},
      {"pricing.chains_hit", num(c.chains_hit), "count"},
      {"pricing.chains_repriced", num(c.chains_repriced), "count"},
      {"pricing.flushes", num(c.pricing_flushes), "count"},
      {"pricing.hit_ratio", share(num(c.chains_hit), num(c.chains_hit + c.chains_repriced)),
       "ratio"},
      {"core.steiner_deploy.busy_s", self("core.steiner_deploy"), "s"},
      {"core.candidate_chains", num(c.candidate_chains), "count"},
      {"core.deployed_chains", num(c.deployed_chains), "count"},
      {"core.conflicts", num(c.conflicts), "count"},
      {"core.conflict_dropped", num(c.conflict_dropped), "count"},
      {"core.rehomed", num(c.rehomed), "count"},
      {"core.shorten.busy_s", self("core.shorten"), "s"},
      {"resilience.recoveries", num(first_on.result.recoveries.size()), "count"},
      {"resilience.recovery_s", recovery_s, "s"},
      {"resilience.recovery_ms_max", recovery_max * 1e3, "ms"},
      {"resilience.escalated", num(escalated), "count"},
      {"resilience.moved_users", num(moved), "count"},
      {"resilience.dropped_users", num(dropped), "count"},
      {"resilience.reembed.calls", num(c.reembed_calls), "count"},
      {"resilience.reembed.busy_s", self("resilience.reembed"), "s"},
      {"admission.rejected", static_cast<double>(pr.rejected_requests), "count"},
      {"admission.rejected_demand_mbps", pr.rejected_demand_mbps, "Mbps"},
      {"admission.max_link_util", pr.max_link_utilization, "ratio"},
      {"admission.max_host_util", pr.max_host_utilization, "ratio"},
      {"admission.overloaded_links", num(pr.overloaded_links), "count"},
      {"dist.solve.busy_s", self("dist.solve"), "s"},
      {"dist.closure_s", c.dist_closure_s, "s"},
      {"dist.messages", num(c.dist_messages), "count"},
      {"dist.payload_bytes", num(c.dist_payload_bytes), "bytes"},
      {"dist.rounds", num(c.dist_rounds), "count"},
      {"trace.overhead_share", median(overhead), "ratio"},
      {"trace.unattributed_share",
       share(first_on.wall_s - traced->top_level_seconds(), first_on.wall_s), "ratio"},
  };
  print_table("per-layer (" + w.name + ", traced replay + pipeline sink)", out.metrics);

  // Self-time split of the traced replay, and the span exports.
  std::cout << "\nself time by span (replay wall " << first_on.wall_s << " s)\n";
  std::ostringstream summary;
  summary << "{\"workload\":" << json_str(w.name) << ",\"seed\":" << args.seed
          << ",\"replay_wall_s\":" << json_num(first_on.wall_s)
          << ",\"unattributed_s\":" << json_num(first_on.wall_s - traced->top_level_seconds())
          << ",\"layers\":{";
  bool comma = false;
  for (const auto& [name, t] : layers) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-24s calls %6zu  total %10.4f s  self %10.4f s  (%5.1f%%)\n",
                  name.c_str(), t.calls, t.total, t.self, 100.0 * share(t.self, first_on.wall_s));
    std::cout << buf;
    summary << (comma ? "," : "") << json_str(name) << ":{\"calls\":" << t.calls
            << ",\"total_s\":" << json_num(t.total) << ",\"self_s\":" << json_num(t.self)
            << ",\"self_share\":" << json_num(share(t.self, first_on.wall_s)) << "}";
    comma = true;
  }
  summary << "}}\n";
  std::filesystem::create_directories(args.trace_dir);
  const std::string stem = file_stem(args);
  traced->write_jsonl(stem + ".spans.jsonl");
  traced->write_chrome(stem + ".chrome.json");
  std::ofstream(stem + ".layers.json") << summary.str();
  std::cout << "wrote " << stem << ".{spans.jsonl,chrome.json,layers.json}\n";
  return out;
}

/// One pipeline pass and one untraced replay; both must agree.
/// Per stream: one pipeline pass and one untraced replay, which must agree.
RunOutput run_record(const Workload& w, const Streams& streams, const topology::Topology& topo) {
  RunOutput out;
  for (const auto& st : streams) {
    const online::OnlineResult pr =
        online::Pipeline(topo, st->cfg, w.solver, solver_options(), pipeline_options()).run();
    check_result(w, pr, out.errors);
    out.digests.push_back(digest_of(pr));
    Tracer off(false);
    const Replay rp = replay(w, topo, st->cfg, off);
    if (digest_of(rp.result) != out.digests.back()) {
      out.errors.push_back("replay diverges from pipeline");
    }
    for (const std::string& e : rp.invalid) out.errors.push_back("invalid forest: " + e);
    out.attempted += static_cast<long long>(pr.per_request_cost.size() * 2);
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value());
    } else if (k == "--trace-dir") {
      a.trace_dir = value();
    } else if (k == "--record") {
      a.record = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "service_bench: " << e.what() << "\n";
    return 2;
  }

  RunOutput out;
  std::string solver;
  int requests = 0;
  try {
    const Workload w = make_workload(args.workload, args.seed);
    const topology::Topology topo = w.make_topology();
    const Streams streams = make_streams(w, topo);
    solver = w.solver;
    requests = w.cfg.requests;
    std::printf("workload %s seed %llu: %s, %d streams of %d arrivals, %zu failure events per "
                "stream, %s\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed), topo.name.c_str(),
                w.streams, w.cfg.requests, streams.front()->plan.events.size(), w.solver.c_str());
    if (args.record) {
      out = run_record(w, streams, topo);
    } else if (args.trace == 1) {
      out = run_traced(w, streams.front()->cfg, topo, args);
    } else {
      out = run_timed(w, streams, args.seconds);
    }
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("exception: ") + e.what());
  }
  out.correct = out.errors.empty();
  out.failed = out.correct ? 0 : std::max<long long>(1, static_cast<long long>(out.errors.size()));
  for (const std::string& e : out.errors) std::cerr << "CHECK FAILED: " << e << "\n";

  std::ostringstream json;
  json << "{\"bench\":\"sofe-service\",\"smoke\":false,\"workload\":" << json_str(args.workload)
       << ",\"seed\":" << args.seed << ",\"trace\":" << args.trace
       << ",\"fingerprint\":{\"compiler\":" << json_str(PERFBENCH_COMPILER)
       << ",\"compiler_version\":" << json_str(__VERSION__)
       << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << ",\"workers\":" << kWorkers << ",\"epoch_size\":" << kEpochSize
       << ",\"lookahead_epochs\":" << kLookahead << ",\"solver_threads\":" << solver_options().threads
       << ",\"solver\":" << json_str(solver) << ",\"requests_per_stream\":" << requests << "}"
       << ",\"correct\":" << (out.correct ? "true" : "false") << ",\"attempted\":" << out.attempted
       << ",\"failed\":" << out.failed << ",\"digests\":[";
  for (std::size_t i = 0; i < out.digests.size(); ++i) {
    json << (i ? "," : "") << json_str(out.digests[i]);
  }
  json << "],\"errors\":[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    json << (i ? "," : "") << json_str(out.errors[i]);
  }
  json << "],\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json << (i ? "," : "") << json_str(m.name) << ":{\"value\":" << json_num(m.value)
         << ",\"unit\":" << json_str(m.unit) << "}";
  }
  json << "}}";
  std::cout << "RESULT " << json.str() << std::endl;
  return out.correct ? 0 : 1;
}
