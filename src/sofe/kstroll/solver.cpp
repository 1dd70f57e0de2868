#include "sofe/kstroll/solver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

namespace sofe::kstroll {

namespace {

constexpr std::size_t kSourceIndex = 0;

Cost recompute(const StrollInstance& inst, const std::vector<std::size_t>& order) {
  Cost sum = 0.0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) sum += inst.edge_cost(order[i], order[i + 1]);
  return sum;
}

}  // namespace

Stroll cheapest_insertion(const StrollInstance& inst, int k) {
  assert(k >= 2);
  const std::size_t n = inst.size();
  if (n < static_cast<std::size_t>(k) || inst.last_index == kSourceIndex) return {};

  Stroll s;
  s.order = {kSourceIndex, inst.last_index};
  std::vector<bool> used(n, false);
  used[kSourceIndex] = used[inst.last_index] = true;

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
    used[best_node] = true;
  }
  s.cost = recompute(inst, s.order);
  improve_stroll(inst, s);
  return s;
}

void improve_stroll(const StrollInstance& inst, Stroll& s) {
  const std::size_t n = inst.size();
  const std::size_t m = s.order.size();
  if (m < 3) return;
  std::vector<bool> used(n, false);
  for (std::size_t x : s.order) used[x] = true;

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
          used[s.order[i]] = false;
          used[x] = true;
          s.order[i] = x;
          improved = true;
          break;
        }
      }
    }
  }
  s.cost = recompute(inst, s.order);
}

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
  assert(c <= 22 && "exact_dp is exponential in instance size");
  const std::size_t need = static_cast<std::size_t>(k) - 2;  // interior nodes to pick
  if (c < need) return {};

  // dp[mask][j] = cheapest path source -> (visits exactly `mask`) -> cand[j].
  const std::uint32_t full = (1u << c) - 1u;
  std::vector<std::vector<Cost>> dp(full + 1, std::vector<Cost>(c, graph::kInfiniteCost));
  std::vector<std::vector<std::int8_t>> pre(full + 1, std::vector<std::int8_t>(c, -1));
  for (std::size_t j = 0; j < c; ++j) {
    dp[1u << j][j] = inst.edge_cost(kSourceIndex, cand[j]);
  }
  Cost best = graph::kInfiniteCost;
  std::uint32_t best_mask = 0;
  std::size_t best_last = 0;
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    const int pc = std::popcount(mask);
    if (static_cast<std::size_t>(pc) > need) continue;
    for (std::size_t j = 0; j < c; ++j) {
      if (!(mask & (1u << j)) || dp[mask][j] == graph::kInfiniteCost) continue;
      if (static_cast<std::size_t>(pc) == need) {
        const Cost total = dp[mask][j] + inst.edge_cost(cand[j], inst.last_index);
        if (total < best) {
          best = total;
          best_mask = mask;
          best_last = j;
        }
        continue;
      }
      for (std::size_t x = 0; x < c; ++x) {
        if (mask & (1u << x)) continue;
        const Cost nd = dp[mask][j] + inst.edge_cost(cand[j], cand[x]);
        const std::uint32_t nm = mask | (1u << x);
        if (nd < dp[nm][x]) {
          dp[nm][x] = nd;
          pre[nm][x] = static_cast<std::int8_t>(j);
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
    const std::int8_t p = pre[mask][j];
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
