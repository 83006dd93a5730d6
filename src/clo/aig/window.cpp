#include "clo/aig/window.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace clo::aig {

std::vector<std::uint32_t> reconvergence_cut(const Aig& g, std::uint32_t root,
                                             int max_leaves) {
  // The leaf set never exceeds max(2, max_leaves) nodes, so membership is
  // a scan of `leaves` itself.
  std::vector<std::uint32_t> leaves;
  auto is_leaf = [&](std::uint32_t n) {
    return std::find(leaves.begin(), leaves.end(), n) != leaves.end();
  };
  auto add_leaf = [&](std::uint32_t n) {
    if (!is_leaf(n)) leaves.push_back(n);
  };
  if (!g.is_and(root)) return {root};
  add_leaf(lit_node(g.fanin0(root)));
  add_leaf(lit_node(g.fanin1(root)));

  // Cost of expanding leaf n = how many leaves the set grows by.
  auto expansion_cost = [&](std::uint32_t n) {
    int cost = -1;  // the leaf itself disappears
    const std::uint32_t c0 = lit_node(g.fanin0(n));
    const std::uint32_t c1 = lit_node(g.fanin1(n));
    if (!is_leaf(c0)) ++cost;
    if (c1 != c0 && !is_leaf(c1)) ++cost;
    return cost;
  };

  while (true) {
    int best_cost = 1000;
    int best_index = -1;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const std::uint32_t n = leaves[i];
      if (!g.is_and(n) || n == root) continue;
      const int cost = expansion_cost(n);
      if (cost < best_cost) {
        best_cost = cost;
        best_index = static_cast<int>(i);
      }
    }
    if (best_index < 0) break;
    if (static_cast<int>(leaves.size()) + best_cost > max_leaves) break;
    const std::uint32_t n = leaves[best_index];
    leaves.erase(leaves.begin() + best_index);
    add_leaf(lit_node(g.fanin0(n)));
    add_leaf(lit_node(g.fanin1(n)));
  }
  std::sort(leaves.begin(), leaves.end());
  return leaves;
}

std::optional<TruthTable> try_cone_truth_table(
    const Aig& g, Lit root_lit, const std::vector<std::uint32_t>& leaves,
    int max_nodes) {
  const int k = static_cast<int>(leaves.size());
  if (k > 16) return std::nullopt;
  std::unordered_map<std::uint32_t, TruthTable> value;
  for (int i = 0; i < k; ++i) value.emplace(leaves[i], TruthTable::variable(k, i));
  int internal = 0;
  std::vector<std::pair<std::uint32_t, int>> stack{{lit_node(root_lit), 0}};
  while (!stack.empty()) {
    auto [n, phase] = stack.back();
    stack.pop_back();
    if (phase == 0) {
      if (value.count(n)) continue;
      if (n == 0) {
        value.emplace(n, TruthTable::constant(k, false));
        continue;
      }
      if (g.is_pi(n) || g.is_dead(n)) return std::nullopt;  // escaped the cut
      if (++internal > max_nodes) return std::nullopt;
      stack.emplace_back(n, 1);
      stack.emplace_back(lit_node(g.fanin0(n)), 0);
      stack.emplace_back(lit_node(g.fanin1(n)), 0);
    } else {
      auto val_of = [&](Lit l) {
        const TruthTable& t = value.at(lit_node(l));
        return lit_is_compl(l) ? ~t : t;
      };
      value.emplace(n, val_of(g.fanin0(n)) & val_of(g.fanin1(n)));
    }
  }
  const TruthTable& t = value.at(lit_node(root_lit));
  return lit_is_compl(root_lit) ? ~t : t;
}

namespace {

// Repeating patterns of variables 0..5 within a 64-bit word.
constexpr std::uint64_t kWordPatterns[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};

// kWindowMasks[k]: the 2^k valid minterms of a k-leaf window.
constexpr std::array<WindowTable, kMaxWindowLeaves + 1> make_masks() {
  std::array<WindowTable, kMaxWindowLeaves + 1> masks{};
  for (int k = 0; k <= kMaxWindowLeaves; ++k) {
    const int bits = 1 << k;
    for (int i = 0; i < 4; ++i) {
      const int in_word = std::min(std::max(bits - 64 * i, 0), 64);
      masks[k].w[i] = in_word == 64 ? ~0ULL : (1ULL << in_word) - 1;
    }
  }
  return masks;
}
constexpr auto kWindowMasks = make_masks();

// kWindowVars[i]: variable i over all 256 minterms (mask it to k leaves).
constexpr std::array<WindowTable, kMaxWindowLeaves> make_vars() {
  std::array<WindowTable, kMaxWindowLeaves> vars{};
  for (int v = 0; v < kMaxWindowLeaves; ++v) {
    for (int i = 0; i < 4; ++i) {
      if (v < 6) {
        vars[v].w[i] = kWordPatterns[v];
      } else {
        vars[v].w[i] = ((i >> (v - 6)) & 1) ? ~0ULL : 0;
      }
    }
  }
  return vars;
}
constexpr auto kWindowVars = make_vars();

}  // namespace

void Window::set_table(std::uint32_t node, const WindowTable& t) {
  stamp_[node] = epoch_;
  slot_[node] = static_cast<std::uint32_t>(tables_.size());
  tables_.push_back(t);
}

bool Window::simulate(const Aig& g, std::uint32_t root,
                      const std::vector<std::uint32_t>& leaves,
                      int max_nodes) {
  const int k = static_cast<int>(leaves.size());
  if (k > kMaxWindowLeaves) {
    throw std::invalid_argument("Window: more than 8 leaves");
  }
  if (stamp_.size() < g.num_slots()) {
    stamp_.resize(g.num_slots(), 0);
    slot_.resize(g.num_slots(), 0);
    mffc_stamp_.resize(g.num_slots(), 0);
  }
  if (++epoch_ == 0) {  // wrapped: forget every old stamp
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(mffc_stamp_.begin(), mffc_stamp_.end(), 0);
    epoch_ = 1;
  }
  root_ = root;
  leaves_.assign(leaves.begin(), leaves.end());
  mask_ = kWindowMasks[k];
  tables_.clear();
  cone_.clear();
  for (int i = 0; i < k; ++i) set_table(leaves[i], kWindowVars[i] & mask_);

  auto value_of = [&](Lit l) {
    const WindowTable& t = table(lit_node(l));
    return lit_is_compl(l) ? t ^ mask_ : t;
  };
  int internal = 0;
  stack_.clear();
  stack_.emplace_back(root, false);
  while (!stack_.empty()) {
    const auto [n, expanded] = stack_.back();
    stack_.pop_back();
    if (expanded) {
      set_table(n, value_of(g.fanin0(n)) & value_of(g.fanin1(n)));
      cone_.push_back(n);
      continue;
    }
    if (stamp_[n] == epoch_) continue;  // a leaf, or already simulated
    if (n == 0) {
      set_table(n, WindowTable{});
      continue;
    }
    if (g.is_pi(n) || g.is_dead(n)) return false;  // escaped the leaves
    if (++internal > max_nodes) return false;
    stack_.emplace_back(n, true);
    stack_.emplace_back(lit_node(g.fanin0(n)), false);
    stack_.emplace_back(lit_node(g.fanin1(n)), false);
  }
  return true;
}

TruthTable Window::truth(Lit l) const {
  const WindowTable& t = table(lit_node(l));
  const WindowTable v = lit_is_compl(l) ? t ^ mask_ : t;
  return TruthTable::from_words(static_cast<int>(leaves_.size()), v.w);
}

const std::vector<std::uint32_t>& Window::collect_divisors(Aig& g,
                                                           int max_divisors) {
  for (std::uint32_t n : g.mffc_nodes(root_)) mffc_stamp_[n] = epoch_;
  divisors_.clear();
  // Leaves first (cheapest divisors: no new structure below them).
  for (std::uint32_t l : leaves_) {
    if (!g.is_const0(l)) divisors_.push_back(l);
  }
  for (std::uint32_t n : cone_) {
    if (n == root_ || mffc_stamp_[n] == epoch_) continue;
    divisors_.push_back(n);
    if (static_cast<int>(divisors_.size()) >= max_divisors) break;
  }
  return divisors_;
}

}  // namespace clo::aig
