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
  // A scored cut keeps the structure it was priced with; phase B replays
  // that same structure, so each candidate is built exactly once.
  struct Scored {
    int estimated_gain;
    MiniAig mini;
    Lit root;
    const Cut* cut;
  };
  std::vector<Scored> scored;
  for (std::uint32_t n : order) {
    if (!g.is_and(n)) continue;  // died in an earlier replacement
    const int mffc = g.mffc_size(n);
    const int min_gain = params.zero_cost ? 0 : 1;
    // Phase A: build and score every cut without touching the graph.
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
      MiniAig mini(static_cast<int>(cut.leaves.size()));
      const Lit root = build_function(mini, window.truth(aig::make_lit(n)));
      // Pessimistic estimate (ignores strash sharing): allow slack that
      // sharing may recover during the exact evaluation below.
      const int est = mffc - mini.cone_size(root);
      if (est < min_gain - 3) continue;
      scored.push_back(Scored{est, std::move(mini), root, &cut});
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
      const std::size_t before = g.num_ands();
      const Lit lit = s.mini.replay(g, s.root, leaf_lits);
      const int added_nodes = static_cast<int>(g.num_ands() - before);
      const int gain = g.mffc_size(n) - added_nodes;
      const bool identity = aig::lit_node(lit) == n;
      const bool cyclic = !identity && g.reaches(lit, n, s.cut->leaves);
      if (identity || cyclic || gain < min_gain) {
        g.sweep(lit);
        continue;
      }
      g.replace(n, lit);
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
