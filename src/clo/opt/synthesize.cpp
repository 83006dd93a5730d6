#include "clo/opt/synthesize.hpp"

#include <algorithm>
#include <map>

#include "clo/util/cancel.hpp"

namespace clo::opt {

using aig::Cube;
using aig::Lit;
using aig::TruthTable;

namespace {

// Memo key: the packed words of the table (tables in one synthesis call all
// share num_vars, so words alone identify the function).
using Memo = std::map<std::vector<std::uint64_t>, Lit>;

Lit build_decomp(MiniAig& mini, const TruthTable& tt, Memo& memo) {
  if (tt.is_const0()) return aig::kLitFalse;
  if (tt.is_const1()) return aig::kLitTrue;
  auto hit = memo.find(tt.words());
  if (hit != memo.end()) return hit->second;
  {
    const TruthTable neg = ~tt;
    auto hit_neg = memo.find(neg.words());
    if (hit_neg != memo.end()) return aig::lit_not(hit_neg->second);
  }
  // Topmost variable the function depends on.
  int v = tt.num_vars() - 1;
  while (v >= 0 && !tt.has_var(v)) --v;
  const Lit x = mini.leaf(v);
  const TruthTable f0 = tt.cofactor0(v);
  const TruthTable f1 = tt.cofactor1(v);
  Lit result;
  if (f0 == f1) {
    result = build_decomp(mini, f0, memo);
  } else if (f1 == ~f0) {
    result = mini.xor_of(x, build_decomp(mini, f0, memo));
  } else if (f0.is_const0()) {
    result = mini.and_of(x, build_decomp(mini, f1, memo));
  } else if (f1.is_const0()) {
    result = mini.and_of(aig::lit_not(x), build_decomp(mini, f0, memo));
  } else if (f0.is_const1()) {
    result = mini.or_of(aig::lit_not(x), build_decomp(mini, f1, memo));
  } else if (f1.is_const1()) {
    result = mini.or_of(x, build_decomp(mini, f0, memo));
  } else {
    const Lit t = build_decomp(mini, f1, memo);
    const Lit e = build_decomp(mini, f0, memo);
    result = mini.mux_of(x, t, e);
  }
  memo.emplace(tt.words(), result);
  return result;
}

// Balanced AND over a list of literals.
Lit balanced_and(MiniAig& mini, std::vector<Lit> lits) {
  if (lits.empty()) return aig::kLitTrue;
  while (lits.size() > 1) {
    std::vector<Lit> next;
    for (std::size_t i = 0; i + 1 < lits.size(); i += 2) {
      next.push_back(mini.and_of(lits[i], lits[i + 1]));
    }
    if (lits.size() % 2) next.push_back(lits.back());
    lits = std::move(next);
  }
  return lits[0];
}

Lit balanced_or(MiniAig& mini, std::vector<Lit> lits) {
  for (auto& l : lits) l = aig::lit_not(l);
  return aig::lit_not(balanced_and(mini, std::move(lits)));
}

Lit build_sop(MiniAig& mini, const std::vector<Cube>& cubes, int num_vars) {
  if (cubes.empty()) return aig::kLitFalse;
  std::vector<Lit> terms;
  terms.reserve(cubes.size());
  for (const Cube& c : cubes) {
    std::vector<Lit> lits;
    for (int v = 0; v < num_vars; ++v) {
      if (!(c.mask & (1u << v))) continue;
      const Lit x = mini.leaf(v);
      lits.push_back((c.polarity & (1u << v)) ? x : aig::lit_not(x));
    }
    terms.push_back(balanced_and(mini, std::move(lits)));
  }
  return balanced_or(mini, std::move(terms));
}

}  // namespace

Lit build_function(MiniAig& mini, const TruthTable& tt) {
  // Innermost synthesis hot path: honor the ambient request token so a
  // cancel/deadline fires mid-rewrite, not only between passes.
  util::cancel_point();
  Memo memo;
  const Lit by_decomp = build_decomp(mini, tt, memo);
  const int cost_decomp = mini.cone_size(by_decomp);

  const auto cubes_pos = aig::isop(tt);
  const auto cubes_neg = aig::isop(~tt);
  const bool use_neg =
      aig::sop_literals(cubes_neg) + static_cast<int>(cubes_neg.size()) <
      aig::sop_literals(cubes_pos) + static_cast<int>(cubes_pos.size());
  const Lit by_sop_raw =
      build_sop(mini, use_neg ? cubes_neg : cubes_pos, tt.num_vars());
  const Lit by_sop = use_neg ? aig::lit_not(by_sop_raw) : by_sop_raw;
  const int cost_sop = mini.cone_size(by_sop);

  return cost_sop < cost_decomp ? by_sop : by_decomp;
}

}  // namespace clo::opt
