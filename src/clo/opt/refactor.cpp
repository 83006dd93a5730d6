#include "clo/aig/window.hpp"
#include "clo/opt/passes.hpp"
#include "clo/opt/synthesize.hpp"
#include "clo/util/timer.hpp"

namespace clo::opt {

using aig::Aig;
using aig::Lit;

namespace {

constexpr int kMaxConeNodes = 400;

}  // namespace

PassStats refactor(Aig& g, const RefactorParams& params) {
  clo::Stopwatch watch;
  watch.start();
  PassStats stats;
  stats.name = params.zero_cost ? "rfz" : "rf";
  stats.nodes_before = g.num_ands();
  stats.depth_before = g.depth();

  aig::Window window;
  const auto order = g.topo_order();
  for (std::uint32_t n : order) {
    if (!g.is_and(n)) continue;
    const int mffc = g.mffc_size(n);
    if (mffc < 2 && !params.zero_cost) continue;  // nothing to collapse
    const auto leaves = aig::reconvergence_cut(g, n, aig::kMaxWindowLeaves);
    if (leaves.size() < 3) continue;
    bool leaves_ok = true;
    for (std::uint32_t leaf : leaves) {
      if (g.is_dead(leaf)) {
        leaves_ok = false;
        break;
      }
    }
    if (!leaves_ok) continue;
    if (!window.simulate(g, n, leaves, kMaxConeNodes)) continue;
    MiniAig mini(static_cast<int>(leaves.size()));
    const Lit root = build_function(mini, window.truth(aig::make_lit(n)));
    std::vector<Lit> leaf_lits;
    leaf_lits.reserve(leaves.size());
    for (std::uint32_t leaf : leaves) leaf_lits.push_back(aig::make_lit(leaf));
    const std::size_t before = g.num_ands();
    const Lit lit = mini.replay(g, root, leaf_lits);
    // Recompute MFFC after building so strash reuse of soon-to-die nodes
    // cannot inflate the gain (the candidate now references them).
    const int gain =
        g.mffc_size(n) - static_cast<int>(g.num_ands() - before);
    const bool identity = aig::lit_node(lit) == n;
    const bool cyclic = !identity && g.reaches(lit, n, leaves);
    const bool accept =
        !identity && !cyclic &&
        (gain > 0 || (params.zero_cost && gain == 0));
    if (accept) {
      g.replace(n, lit);
      ++stats.accepted_moves;
    } else {
      g.sweep(lit);
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
