#include "sofe/kstroll/pricing.hpp"

#include <algorithm>
#include <cassert>

namespace sofe::kstroll {

void SharedVmBlock::build(const MetricClosure& closure, const std::vector<NodeId>& vms,
                          const std::vector<Cost>& node_cost) {
  m_ = vms.size();
  values_.assign(m_ * m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    // One tree lookup per ROW (the per-pair builder pays one per entry);
    // entry (i, j < i) was already written by row j's pass.
    const auto& row = closure.tree(vms[i]);
    const Cost ci = node_cost[static_cast<std::size_t>(vms[i])];
    for (std::size_t j = i + 1; j < m_; ++j) {
      // Exactly build_stroll_instance's arithmetic for a VM pair: base
      // distance from the lower-indexed node's tree plus the shared setup.
      const Cost base = row.distance(vms[j]);
      const Cost share = (ci + node_cost[static_cast<std::size_t>(vms[j])]) / 2.0;
      values_[i * m_ + j] = values_[j * m_ + i] = base + share;
    }
  }
  valid_ = true;
}

void InstanceAssembler::bind_source(const SharedVmBlock& block, const MetricClosure& closure,
                                    const std::vector<NodeId>& vms, NodeId s) {
  assert(block.valid() && block.size() == vms.size());
  assert(std::find(vms.begin(), vms.end(), s) == vms.end() &&
         "sources inside the VM set use the per-pair builder");
  const std::size_t m = vms.size();
  const std::size_t n = m + 1;

  inst_.source = s;
  inst_.last_vm = graph::kInvalidNode;
  inst_.last_index = 0;
  inst_.nodes.clear();
  inst_.nodes.reserve(n);
  inst_.nodes.push_back(s);
  inst_.nodes.insert(inst_.nodes.end(), vms.begin(), vms.end());

  // Row i + 1 of the instance is [source entry] + block row i; the source
  // row and column are written per last VM by with_last_vm.
  inst_.cost.resize(n * n);
  inst_.cost[0] = 0.0;
  const Cost* block_row = block.values().data();
  for (std::size_t i = 0; i < m; ++i, block_row += m) {
    std::copy(block_row, block_row + m, inst_.cost.data() + (i + 1) * n + 1);
  }

  const auto& source_tree = closure.tree(s);
  base_row_.resize(m);
  for (std::size_t j = 0; j < m; ++j) base_row_[j] = source_tree.distance(vms[j]);
  bound_ = true;
}

const StrollInstance& InstanceAssembler::with_last_vm(std::size_t vm_index, NodeId u,
                                                      const std::vector<Cost>& node_cost) {
  assert(bound_ && "bind_source first");
  assert(vm_index + 1 < inst_.nodes.size() && inst_.nodes[vm_index + 1] == u);
  const std::size_t n = inst_.nodes.size();
  const Cost cu = node_cost[static_cast<std::size_t>(u)];
  for (std::size_t j = 1; j < n; ++j) {
    // build_stroll_instance's v1 == s branch: base + (c(u) + c(v2)) / 2.
    const Cost share = (cu + node_cost[static_cast<std::size_t>(inst_.nodes[j])]) / 2.0;
    inst_.cost[j] = inst_.cost[j * n] = base_row_[j - 1] + share;
  }
  inst_.last_vm = u;
  inst_.last_index = vm_index + 1;
  return inst_;
}

}  // namespace sofe::kstroll
