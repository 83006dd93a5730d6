#include <algorithm>
#include <array>

#include "clo/aig/window.hpp"
#include "clo/opt/passes.hpp"
#include "clo/util/timer.hpp"

namespace clo::opt {

using aig::Aig;
using aig::Lit;
using aig::WindowTable;

namespace {

constexpr int kMaxConeNodes = 400;
constexpr int kMaxDivisors = 40;
/// 2-resub (n = d1 op (d2 op d3)) tries only the first divisors.
constexpr std::size_t kMaxTwoLevelDivisors = 16;

}  // namespace

PassStats resub(Aig& g, const ResubParams& params) {
  clo::Stopwatch watch;
  watch.start();
  PassStats stats;
  stats.name = params.zero_cost ? "rsz" : "rs";
  stats.nodes_before = g.num_ands();
  stats.depth_before = g.depth();

  aig::Window window;
  // Each divisor's function and its complement, indexed [divisor][polarity].
  std::vector<std::array<WindowTable, 2>> dv;
  const auto order = g.topo_order();
  for (std::uint32_t n : order) {
    if (!g.is_and(n)) continue;
    const int mffc = g.mffc_size(n);
    const int min_gain = params.zero_cost ? 0 : 1;
    const auto leaves = aig::reconvergence_cut(g, n, aig::kMaxWindowLeaves);
    if (leaves.empty()) continue;
    bool leaves_ok = true;
    for (std::uint32_t leaf : leaves) {
      if (g.is_dead(leaf)) {
        leaves_ok = false;
        break;
      }
    }
    if (!leaves_ok) continue;
    if (!window.simulate(g, n, leaves, kMaxConeNodes)) continue;
    const auto& divisors = window.collect_divisors(g, kMaxDivisors);
    const WindowTable& mask = window.mask();
    const WindowTable target = window.table(n);
    const WindowTable not_target = target ^ mask;
    dv.clear();
    for (std::uint32_t d : divisors) {
      const WindowTable& t = window.table(d);
      dv.push_back({t, t ^ mask});
    }

    bool replaced = false;
    // --- 0-resub: an existing node already computes the function. -------
    for (std::size_t i = 0; i < dv.size(); ++i) {
      Lit with = aig::kLitNull;
      if (dv[i][0] == target) with = aig::make_lit(divisors[i]);
      else if (dv[i][0] == not_target) with = aig::make_lit(divisors[i], true);
      if (with == aig::kLitNull) continue;
      if (mffc < std::max(min_gain, 1)) break;  // gain = mffc
      g.replace(n, with);
      ++stats.accepted_moves;
      replaced = true;
      break;
    }
    if (replaced) continue;

    // --- 1-resub: AND/OR of two divisors (any polarities). --------------
    for (std::size_t i = 0; i < dv.size() && !replaced; ++i) {
      for (std::size_t j = i + 1; j < dv.size() && !replaced; ++j) {
        for (int pol = 0; pol < 4 && !replaced; ++pol) {
          const WindowTable conj = dv[i][pol & 1] & dv[j][(pol >> 1) & 1];
          bool out_compl;
          if (conj == target) out_compl = false;
          else if (conj == not_target) out_compl = true;
          else continue;
          const Lit la = aig::make_lit(divisors[i], (pol & 1) != 0);
          const Lit lb = aig::make_lit(divisors[j], (pol & 2) != 0);
          const int added = g.probe_and(la, lb) ? 0 : 1;
          if (mffc - added < min_gain) continue;  // cheap upper bound
          const Lit new_lit = aig::lit_notc(g.and_of(la, lb), out_compl);
          if (aig::lit_node(new_lit) == n) continue;
          // Exact gain: the new node references the divisors, so any
          // divisor inside the old MFFC no longer counts as freed.
          const int gain = g.mffc_size(n) - added;
          if (gain < min_gain) {
            g.sweep(aig::lit_regular(new_lit));
            continue;
          }
          g.replace(n, new_lit);
          ++stats.accepted_moves;
          replaced = true;
        }
      }
    }
    if (replaced) continue;

    // --- 2-resub: n = da & (db | dc), all polarities, output maybe
    // complemented. Adds up to 2 nodes, so only worthwhile for MFFC >= 3
    // (or >= 2 in zero-cost mode).
    const int need = params.zero_cost ? 2 : 3;
    if (mffc < need) continue;
    const std::size_t limit = std::min(dv.size(), kMaxTwoLevelDivisors);
    for (std::size_t a = 0; a < limit && !replaced; ++a) {
      for (std::size_t b = 0; b < limit && !replaced; ++b) {
        if (b == a) continue;
        for (std::size_t c = b + 1; c < limit && !replaced; ++c) {
          if (c == a) continue;
          for (int pol = 0; pol < 8 && !replaced; ++pol) {
            const WindowTable f = dv[a][pol & 1] & (dv[b][(pol >> 1) & 1] |
                                                    dv[c][(pol >> 2) & 1]);
            bool out_compl;
            if (f == target) out_compl = false;
            else if (f == not_target) out_compl = true;
            else continue;
            const Lit la = aig::make_lit(divisors[a], (pol & 1) != 0);
            const Lit lb = aig::make_lit(divisors[b], (pol & 2) != 0);
            const Lit lc = aig::make_lit(divisors[c], (pol & 4) != 0);
            const std::size_t ands_before = g.num_ands();
            const Lit inner = g.or_of(lb, lc);
            const Lit top = g.and_of(la, inner);
            const int added = static_cast<int>(g.num_ands() - ands_before);
            if (aig::lit_node(top) == n || aig::lit_node(inner) == n) {
              g.sweep(top);
              continue;
            }
            // Exact gain: the new structure pins any reused divisors, so
            // the recomputed MFFC counts only what replace() will free.
            const int gain = g.mffc_size(n) - added;
            if (gain < min_gain) {
              g.sweep(top);
              continue;
            }
            g.replace(n, aig::lit_notc(top, out_compl));
            ++stats.accepted_moves;
            replaced = true;
          }
        }
      }
    }
  }
  g.cleanup();
  stats.nodes_after = g.num_ands();
  stats.depth_after = g.depth();
  watch.stop();
  stats.seconds = watch.seconds();
  return stats;
}

}  // namespace clo::opt
