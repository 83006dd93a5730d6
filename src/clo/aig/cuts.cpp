#include "clo/aig/cuts.hpp"

#include <algorithm>

namespace clo::aig {

bool Cut::dominates(const Cut& o) const {
  if (leaves.size() > o.leaves.size()) return false;
  return std::includes(o.leaves.begin(), o.leaves.end(), leaves.begin(),
                       leaves.end());
}

bool merge_cuts(const Cut& a, const Cut& b, int k, Cut& out) {
  out.leaves.clear();
  std::size_t i = 0, j = 0;
  while (i < a.leaves.size() || j < b.leaves.size()) {
    std::uint32_t next;
    if (j >= b.leaves.size() ||
        (i < a.leaves.size() && a.leaves[i] <= b.leaves[j])) {
      next = a.leaves[i++];
      if (j < b.leaves.size() && b.leaves[j] == next) ++j;
    } else {
      next = b.leaves[j++];
    }
    out.leaves.push_back(next);
    if (static_cast<int>(out.leaves.size()) > k) return false;
  }
  return true;
}

const std::vector<Cut>& CutSet::cuts_of(std::uint32_t node) {
  // Grow before taking any reference into memo_: compute() adds no nodes,
  // so the references it holds stay valid. After replace() a fanin's id can
  // exceed its fanout's, hence num_slots() rather than node + 1.
  if (memo_.size() < g_.num_slots()) memo_.resize(g_.num_slots());
  return compute(node);
}

const std::vector<Cut>& CutSet::compute(std::uint32_t n) {
  if (!memo_[n].empty()) return memo_[n];
  std::vector<Cut> result;
  if (!g_.is_and(n)) {
    result.push_back(Cut{{n}});
  } else {
    const auto& c0 = compute(lit_node(g_.fanin0(n)));
    const auto& c1 = compute(lit_node(g_.fanin1(n)));
    Cut merged;
    for (const Cut& a : c0) {
      for (const Cut& b : c1) {
        if (!merge_cuts(a, b, kCutLeaves, merged)) continue;
        // Drop if dominated by an existing cut; drop existing dominated.
        bool dominated = false;
        for (const Cut& c : result) {
          if (c.dominates(merged)) {
            dominated = true;
            break;
          }
        }
        if (dominated) continue;
        std::erase_if(result, [&](const Cut& c) { return merged.dominates(c); });
        result.push_back(merged);
      }
    }
    // Priority: prefer fewer leaves (cheaper to match / rewrite).
    std::sort(result.begin(), result.end(), [](const Cut& a, const Cut& b) {
      return a.leaves.size() < b.leaves.size();
    });
    if (static_cast<int>(result.size()) > max_cuts_) result.resize(max_cuts_);
    result.push_back(Cut{{n}});
  }
  memo_[n] = std::move(result);
  return memo_[n];
}

}  // namespace clo::aig
