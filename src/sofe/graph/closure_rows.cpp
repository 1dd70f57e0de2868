#include "sofe/graph/closure_rows.hpp"

namespace sofe::graph {

void RowStore::reset(std::size_t node_count) {
  if (n_ == node_count) return;
  n_ = node_count;
  open_dist_.reset();
  open_dist_used_ = 0;
  open_idx_.reset();
  open_idx_used_ = 0;
  free_dist_.clear();
  free_idx_.clear();
}

RowStore::DistRef RowStore::alloc_dist() {
  // Recycle newest-freed-first: the common retain/extend churn then reuses
  // the very rows it just dropped, keeping the hot set in the same slabs.
  if (!free_dist_.empty()) {
    DistRef ref = std::move(free_dist_.back());
    free_dist_.pop_back();
    return ref;
  }
  if (open_dist_ == nullptr || open_dist_used_ == kRowsPerSlab) {
    open_dist_ = std::make_shared<DistSlab>();
    open_dist_->data.resize(n_ * kRowsPerSlab);
    open_dist_used_ = 0;
  }
  DistRef ref{open_dist_, static_cast<std::uint32_t>(open_dist_used_ * n_)};
  ++open_dist_used_;
  return ref;
}

RowStore::IdxRef RowStore::alloc_idx() {
  if (!free_idx_.empty()) {
    IdxRef ref = std::move(free_idx_.back());
    free_idx_.pop_back();
    return ref;
  }
  if (open_idx_ == nullptr || open_idx_used_ == kRowsPerSlab) {
    open_idx_ = std::make_shared<IdxSlab>();
    open_idx_->data.resize(2 * n_ * kRowsPerSlab);
    open_idx_used_ = 0;
  }
  IdxRef ref{open_idx_, static_cast<std::uint32_t>(open_idx_used_ * 2 * n_)};
  ++open_idx_used_;
  return ref;
}

void RowStore::release(DistRef ref) {
  if (ref) free_dist_.push_back(std::move(ref));
}

void RowStore::release(IdxRef ref) {
  if (ref) free_idx_.push_back(std::move(ref));
}

void RowStore::account(std::unordered_set<const void*>& seen, std::size_t& bytes) const {
  const auto add_dist = [&](const std::shared_ptr<DistSlab>& s) {
    if (s != nullptr && seen.insert(s.get()).second) bytes += s->data.capacity() * sizeof(Cost);
  };
  const auto add_idx = [&](const std::shared_ptr<IdxSlab>& s) {
    if (s != nullptr && seen.insert(s.get()).second) {
      bytes += s->data.capacity() * sizeof(std::int32_t);
    }
  };
  add_dist(open_dist_);
  add_idx(open_idx_);
  for (const DistRef& r : free_dist_) add_dist(r.slab);
  for (const IdxRef& r : free_idx_) add_idx(r.slab);
}

}  // namespace sofe::graph
