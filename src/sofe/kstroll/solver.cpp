#include "sofe/kstroll/solver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace sofe::kstroll {

namespace {

constexpr std::size_t kSourceIndex = 0;

Cost recompute(const StrollInstance& inst, const std::vector<std::size_t>& order) {
  Cost sum = 0.0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) sum += inst.edge_cost(order[i], order[i + 1]);
  return sum;
}

/// improve_stroll on marks the caller already holds: `used[x]` is set
/// exactly for the nodes of s.order, before and after.
void improve_marked(const StrollInstance& inst, Stroll& s, std::vector<std::uint8_t>& used);

}  // namespace

Stroll cheapest_insertion(const StrollInstance& inst, int k) {
  assert(k >= 2);
  const std::size_t n = inst.size();
  if (n < static_cast<std::size_t>(k) || inst.last_index == kSourceIndex) return {};

  Stroll s;
  s.order = {kSourceIndex, inst.last_index};
  std::vector<std::uint8_t> used(n, 0);
  used[kSourceIndex] = used[inst.last_index] = 1;

  while (s.order.size() < static_cast<std::size_t>(k)) {
    // Pick (node, gap) with minimal insertion delta.
    Cost best_delta = graph::kInfiniteCost;
    std::size_t best_node = n, best_gap = 0;
    for (std::size_t x = 0; x < n; ++x) {
      if (used[x]) continue;
      for (std::size_t gap = 0; gap + 1 < s.order.size(); ++gap) {
        const std::size_t a = s.order[gap];
        const std::size_t b = s.order[gap + 1];
        const Cost delta = inst.edge_cost(a, x) + inst.edge_cost(x, b) - inst.edge_cost(a, b);
        if (delta < best_delta) {
          best_delta = delta;
          best_node = x;
          best_gap = gap;
        }
      }
    }
    // No unused node has a finite insertion delta: the s/u component holds
    // fewer than k nodes (e.g. VMs cut off by +inf failed links).
    if (best_node == n) return {};
    s.order.insert(s.order.begin() + static_cast<std::ptrdiff_t>(best_gap) + 1, best_node);
    used[best_node] = 1;
  }
  s.cost = recompute(inst, s.order);
  improve_marked(inst, s, used);
  return s;
}

void improve_stroll(const StrollInstance& inst, Stroll& s) {
  std::vector<std::uint8_t> used(inst.size(), 0);
  for (std::size_t x : s.order) used[x] = 1;
  improve_marked(inst, s, used);
}

namespace {

void improve_marked(const StrollInstance& inst, Stroll& s, std::vector<std::uint8_t>& used) {
  const std::size_t n = inst.size();
  const std::size_t m = s.order.size();
  if (m < 3) return;

  constexpr Cost kEps = 1e-12;
  bool improved = true;
  int guard = 256;  // steepest-descent passes; tiny instances converge fast
  while (improved && guard-- > 0) {
    improved = false;
    // 2-opt: reverse interior segment [i, j].
    for (std::size_t i = 1; i + 1 < m; ++i) {
      for (std::size_t j = i; j + 1 < m; ++j) {
        const Cost before = inst.edge_cost(s.order[i - 1], s.order[i]) +
                            inst.edge_cost(s.order[j], s.order[j + 1]);
        const Cost after = inst.edge_cost(s.order[i - 1], s.order[j]) +
                           inst.edge_cost(s.order[i], s.order[j + 1]);
        if (after + kEps < before) {
          std::reverse(s.order.begin() + static_cast<std::ptrdiff_t>(i),
                       s.order.begin() + static_cast<std::ptrdiff_t>(j) + 1);
          improved = true;
        }
      }
    }
    // or-opt: relocate one interior node to another gap.
    for (std::size_t i = 1; i + 1 < m && !improved; ++i) {
      const Cost remove_gain = inst.edge_cost(s.order[i - 1], s.order[i]) +
                               inst.edge_cost(s.order[i], s.order[i + 1]) -
                               inst.edge_cost(s.order[i - 1], s.order[i + 1]);
      for (std::size_t gap = 0; gap + 1 < m; ++gap) {
        if (gap == i - 1 || gap == i) continue;
        const Cost insert_cost = inst.edge_cost(s.order[gap], s.order[i]) +
                                 inst.edge_cost(s.order[i], s.order[gap + 1]) -
                                 inst.edge_cost(s.order[gap], s.order[gap + 1]);
        if (insert_cost + kEps < remove_gain) {
          const std::size_t node = s.order[i];
          s.order.erase(s.order.begin() + static_cast<std::ptrdiff_t>(i));
          const std::size_t g = gap > i ? gap - 1 : gap;
          s.order.insert(s.order.begin() + static_cast<std::ptrdiff_t>(g) + 1, node);
          improved = true;
          break;
        }
      }
    }
    // node swap: replace a chosen interior node with an unchosen one.
    for (std::size_t i = 1; i + 1 < m && !improved; ++i) {
      const Cost here = inst.edge_cost(s.order[i - 1], s.order[i]) +
                        inst.edge_cost(s.order[i], s.order[i + 1]);
      for (std::size_t x = 0; x < n; ++x) {
        if (used[x]) continue;
        const Cost there = inst.edge_cost(s.order[i - 1], x) + inst.edge_cost(x, s.order[i + 1]);
        if (there + kEps < here) {
          used[s.order[i]] = 0;
          used[x] = 1;
          s.order[i] = x;
          improved = true;
          break;
        }
      }
    }
  }
  s.cost = recompute(inst, s.order);
}

}  // namespace

Stroll exact_dp(const StrollInstance& inst, int k) {
  assert(k >= 2);
  const std::size_t n = inst.size();
  if (n < static_cast<std::size_t>(k) || inst.last_index == kSourceIndex) return {};
  if (k == 2) {
    Stroll s;
    s.order = {kSourceIndex, inst.last_index};
    s.cost = inst.edge_cost(kSourceIndex, inst.last_index);
    return s;
  }

  // Interior candidates: everything except source and last VM.
  std::vector<std::size_t> cand;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != kSourceIndex && i != inst.last_index) cand.push_back(i);
  }
  const std::size_t c = cand.size();
  if (c > kMaxExactCandidates) {
    // The DP holds 2^c * c labels of 9 bytes: 22 candidates already take
    // about 0.8 GB, 24 about 3.6 GB, and 32 would overflow the mask.
    throw std::invalid_argument(
        "exact_dp: an instance of " + std::to_string(n) + " nodes has " + std::to_string(c) +
        " interior candidates, past the exact k-stroll DP's limit of " +
        std::to_string(kMaxExactCandidates));
  }
  const std::size_t need = static_cast<std::size_t>(k) - 2;  // interior nodes to pick
  if (c < need) return {};

  // dp[mask * c + j] = cheapest path source -> (visits exactly `mask`) ->
  // cand[j]; pre holds the predecessor candidate on the same index.
  const std::uint32_t full = (1u << c) - 1u;
  const auto at = [c](std::uint32_t mask, std::size_t j) { return mask * c + j; };
  std::vector<Cost> dp((static_cast<std::size_t>(full) + 1) * c, graph::kInfiniteCost);
  std::vector<std::int8_t> pre(dp.size(), -1);
  for (std::size_t j = 0; j < c; ++j) {
    dp[at(1u << j, j)] = inst.edge_cost(kSourceIndex, cand[j]);
  }
  Cost best = graph::kInfiniteCost;
  std::uint32_t best_mask = 0;
  std::size_t best_last = 0;
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    const int pc = std::popcount(mask);
    if (static_cast<std::size_t>(pc) > need) continue;
    for (std::size_t j = 0; j < c; ++j) {
      const Cost here = dp[at(mask, j)];
      if (!(mask & (1u << j)) || here == graph::kInfiniteCost) continue;
      if (static_cast<std::size_t>(pc) == need) {
        const Cost total = here + inst.edge_cost(cand[j], inst.last_index);
        if (total < best) {
          best = total;
          best_mask = mask;
          best_last = j;
        }
        continue;
      }
      for (std::size_t x = 0; x < c; ++x) {
        if (mask & (1u << x)) continue;
        const Cost nd = here + inst.edge_cost(cand[j], cand[x]);
        const std::size_t next = at(mask | (1u << x), x);
        if (nd < dp[next]) {
          dp[next] = nd;
          pre[next] = static_cast<std::int8_t>(j);
        }
      }
    }
  }
  if (best == graph::kInfiniteCost) return {};

  Stroll s;
  s.cost = best;
  std::vector<std::size_t> rev{inst.last_index};
  std::uint32_t mask = best_mask;
  std::size_t j = best_last;
  while (true) {
    rev.push_back(cand[j]);
    const std::int8_t p = pre[at(mask, j)];
    mask ^= (1u << j);
    if (p < 0) break;
    j = static_cast<std::size_t>(p);
  }
  rev.push_back(kSourceIndex);
  s.order.assign(rev.rbegin(), rev.rend());
  assert(s.order.size() == static_cast<std::size_t>(k));
  return s;
}

Stroll solve_stroll(const StrollInstance& inst, int k, StrollAlgorithm algo) {
  switch (algo) {
    case StrollAlgorithm::kCheapestInsertion:
      return cheapest_insertion(inst, k);
    case StrollAlgorithm::kExactDp:
      return exact_dp(inst, k);
  }
  return {};
}

}  // namespace sofe::kstroll
