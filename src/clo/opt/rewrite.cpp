#include <algorithm>

#include "clo/aig/cuts.hpp"
#include "clo/aig/window.hpp"
#include "clo/opt/passes.hpp"
#include "clo/opt/synthesize.hpp"
#include "clo/util/timer.hpp"

namespace clo::opt {

using aig::Aig;
using aig::Cut;
using aig::Lit;
using aig::TruthTable;

namespace {

constexpr int kMaxCutsPerNode = 8;
constexpr int kMaxConeNodes = 64;

}  // namespace

PassStats rewrite(Aig& g, const RewriteParams& params) {
  clo::Stopwatch watch;
  watch.start();
  PassStats stats;
  stats.name = params.zero_cost ? "rwz" : "rw";
  stats.nodes_before = g.num_ands();
  stats.depth_before = g.depth();

  aig::CutSet cuts(g, kMaxCutsPerNode);
  aig::Window window;
  const auto order = g.topo_order();
  struct Scored {
    int estimated_gain;
    TruthTable tt;
    const Cut* cut;
  };
  std::vector<Scored> scored;
  for (std::uint32_t n : order) {
    if (!g.is_and(n)) continue;  // died in an earlier replacement
    const int mffc = g.mffc_size(n);
    const int min_gain = params.zero_cost ? 0 : 1;
    // Phase A: score every cut without touching the graph.
    scored.clear();
    for (const Cut& cut : cuts.cuts_of(n)) {
      if (cut.leaves.size() < 2) continue;  // trivial or constant cut
      bool leaves_ok = true;
      for (std::uint32_t leaf : cut.leaves) {
        if (g.is_dead(leaf)) {
          leaves_ok = false;
          break;
        }
      }
      if (!leaves_ok) continue;
      if (!window.simulate(g, n, cut.leaves, kMaxConeNodes)) continue;
      TruthTable tt = window.truth(aig::make_lit(n));
      // Pessimistic estimate (ignores strash sharing): allow slack that
      // sharing may recover during the exact evaluation below.
      const int est = mffc - estimate_cost(tt);
      if (est < min_gain - 3) continue;
      scored.push_back(Scored{est, std::move(tt), &cut});
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                return a.estimated_gain > b.estimated_gain;
              });
    // Phase B: evaluate candidates one at a time, sweeping each reject
    // before building the next. This keeps the gain accounting exact:
    // `added_nodes` can never silently reuse another candidate's garbage,
    // and the post-build MFFC excludes nodes the candidate pins.
    for (const Scored& s : scored) {
      std::vector<Lit> leaf_lits;
      leaf_lits.reserve(s.cut->leaves.size());
      for (std::uint32_t leaf : s.cut->leaves) {
        leaf_lits.push_back(aig::make_lit(leaf));
      }
      const auto cand = synthesize_into(g, s.tt, leaf_lits);
      const int gain = g.mffc_size(n) - cand.added_nodes;
      const bool identity = aig::lit_node(cand.lit) == n;
      const bool cyclic = !identity && g.reaches(cand.lit, n, s.cut->leaves);
      if (identity || cyclic || gain < min_gain) {
        g.sweep(cand.lit);
        continue;
      }
      g.replace(n, cand.lit);
      ++stats.accepted_moves;
      break;
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
