#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "clo/aig/cuts.hpp"
#include "clo/aig/simulate.hpp"
#include "clo/aig/window.hpp"
#include "clo/circuits/generators.hpp"
#include "clo/sat/fuzz.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo::aig;

Aig random_aig(int pis, int nodes, int pos, std::uint64_t seed) {
  Aig g;
  clo::Rng rng(seed);
  std::vector<Lit> pool;
  for (int i = 0; i < pis; ++i) pool.push_back(g.add_pi());
  for (int i = 0; i < nodes; ++i) {
    const Lit a = pool[rng.next_below(pool.size())];
    const Lit b = pool[rng.next_below(pool.size())];
    pool.push_back(lit_notc(g.and_of(a, b), rng.next_bool()));
  }
  for (int i = 0; i < pos; ++i) {
    g.add_po(pool[pool.size() - 1 - i * 3]);
  }
  g.cleanup();
  return g;
}

/// A leaf set is a cut of `root` iff every PI-ward path crosses it:
/// verified by checking the bounded cone extraction succeeds.
bool is_cut(const Aig& g, std::uint32_t root,
            const std::vector<std::uint32_t>& leaves) {
  return try_cone_truth_table(g, make_lit(root), leaves, 1 << 20).has_value();
}

TEST(Cuts, MergeRespectsLimit) {
  Cut a{{1, 3, 5}};
  Cut b{{2, 3, 7}};
  Cut out;
  EXPECT_FALSE(merge_cuts(a, b, 4, out));  // union has 5 leaves
  EXPECT_TRUE(merge_cuts(a, b, 5, out));
  EXPECT_EQ(out.leaves, (std::vector<std::uint32_t>{1, 2, 3, 5, 7}));
}

TEST(Cuts, Domination) {
  Cut small{{1, 2}};
  Cut big{{1, 2, 3}};
  EXPECT_TRUE(small.dominates(big));
  EXPECT_FALSE(big.dominates(small));
  EXPECT_TRUE(small.dominates(small));
}

TEST(Cuts, EveryCutIsValid) {
  const Aig g = random_aig(8, 120, 4, 99);
  CutSet cuts(g, 8);
  int checked = 0;
  for (std::uint32_t n : g.topo_order()) {
    for (const Cut& cut : cuts.cuts_of(n)) {
      EXPECT_LE(cut.leaves.size(), 4u);
      EXPECT_TRUE(std::is_sorted(cut.leaves.begin(), cut.leaves.end()));
      EXPECT_TRUE(is_cut(g, n, cut.leaves)) << "node " << n;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(Cuts, TrivialCutPresent) {
  const Aig g = random_aig(6, 40, 2, 5);
  CutSet cuts(g, 8);
  for (std::uint32_t n : g.topo_order()) {
    const auto& set = cuts.cuts_of(n);
    const bool has_trivial =
        std::any_of(set.begin(), set.end(), [&](const Cut& c) {
          return c.leaves.size() == 1 && c.leaves[0] == n;
        });
    EXPECT_TRUE(has_trivial);
  }
}

TEST(Cuts, DirectFaninCutPresent) {
  const Aig g = random_aig(6, 60, 3, 6);
  CutSet cuts(g, 8);
  for (std::uint32_t n : g.topo_order()) {
    // Some cut of <= 2 leaves must match the node (fanins or dominated).
    const auto& set = cuts.cuts_of(n);
    const bool has_small =
        std::any_of(set.begin(), set.end(), [&](const Cut& c) {
          return c.leaves.size() <= 2 && !(c.leaves.size() == 1 && c.leaves[0] == n);
        });
    EXPECT_TRUE(has_small) << "node " << n;
  }
}

TEST(Cuts, RequestOrderDoesNotChangeCuts) {
  // Reverse topological order makes every first request recurse down to
  // the inputs; the memoized result must not depend on that.
  const Aig g = random_aig(8, 150, 4, 31);
  const auto order = g.topo_order();
  for (int max_cuts : {8, 12}) {
    CutSet forward(g, max_cuts);
    CutSet backward(g, max_cuts);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      backward.cuts_of(*it);
    }
    for (std::uint32_t n : order) {
      EXPECT_EQ(forward.cuts_of(n), backward.cuts_of(n)) << "node " << n;
    }
  }
}

TEST(Cuts, FollowCurrentFaninsAfterEdits) {
  Aig g = random_aig(8, 150, 4, 37);
  const auto order = g.topo_order();
  CutSet cuts(g, 8);
  // Memoize the first half, as a pass does before it starts editing.
  const std::size_t half = order.size() / 2;
  for (std::size_t i = 0; i < half; ++i) cuts.cuts_of(order[i]);

  // A node added after construction: its id is past the memo's size.
  const std::size_t slots_before = g.num_slots();
  const Lit added = g.and_of(make_lit(order[0]), make_lit(order[1], true));
  ASSERT_GE(lit_node(added), slots_before);
  // Redirect nodes of the second half to fresh nodes, so their fanouts
  // get a fanin with a larger id than their own.
  std::vector<std::uint32_t> redirected;
  for (std::size_t i = half; i < order.size() && redirected.size() < 5;
       i += 7) {
    const std::uint32_t n = order[i];
    if (!g.is_and(n) || g.nrefs(n) == 0) continue;
    const Lit with = g.and_of(g.fanin1(n), lit_not(g.fanin0(n)));
    if (lit_node(with) == n || g.reaches(with, n, {})) continue;
    g.replace(n, with);
    for (std::uint32_t f : g.fanouts(lit_node(with))) {
      if (f < lit_node(with)) redirected.push_back(f);
    }
  }
  ASSERT_FALSE(redirected.empty());

  // Request those first, before a larger id has grown the memo; then every
  // live node's cuts match a set built on the edited graph (replacements
  // only touched nodes later than the memoized half).
  CutSet fresh(g, 8);
  for (std::uint32_t f : redirected) {
    if (!g.is_and(f)) continue;
    EXPECT_EQ(cuts.cuts_of(f), fresh.cuts_of(f)) << "node " << f;
  }
  for (std::uint32_t n : g.topo_order()) {
    EXPECT_EQ(cuts.cuts_of(n), fresh.cuts_of(n)) << "node " << n;
    for (const Cut& cut : cuts.cuts_of(n)) {
      EXPECT_TRUE(is_cut(g, n, cut.leaves)) << "node " << n;
    }
  }
  const auto& added_cuts = cuts.cuts_of(lit_node(added));
  EXPECT_EQ(added_cuts, fresh.cuts_of(lit_node(added)));
  EXPECT_EQ(added_cuts.back(), Cut{{lit_node(added)}});
}

TEST(ReconvergenceCut, IsValidCutWithinBound) {
  Aig g = random_aig(10, 200, 5, 17);
  for (std::uint32_t n : g.topo_order()) {
    const auto leaves = reconvergence_cut(g, n, 8);
    EXPECT_LE(leaves.size(), 8u);
    EXPECT_FALSE(leaves.empty());
    EXPECT_TRUE(is_cut(g, n, leaves)) << "node " << n;
  }
}

TEST(ReconvergenceCut, GrowsBeyondFanins) {
  // On a reconvergent structure the cut should expand past the fanins.
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.and_of(a, b);
  const Lit y = g.and_of(b, c);
  const Lit top = g.and_of(x, y);
  g.add_po(top);
  const auto leaves = reconvergence_cut(g, lit_node(top), 4);
  // Expanding both fanins gives {a, b, c}.
  EXPECT_EQ(leaves.size(), 3u);
  const std::set<std::uint32_t> ls(leaves.begin(), leaves.end());
  EXPECT_TRUE(ls.count(lit_node(a)));
  EXPECT_TRUE(ls.count(lit_node(b)));
  EXPECT_TRUE(ls.count(lit_node(c)));
}

TEST(ConeNodes, TopologicalAndComplete) {
  Aig g = random_aig(8, 150, 4, 23);
  Window window;
  for (std::uint32_t n : g.topo_order()) {
    const auto leaves = reconvergence_cut(g, n, 6);
    ASSERT_TRUE(window.simulate(g, n, leaves, 1 << 20));
    const auto& cone = window.cone();
    // Root included, leaves excluded, order topological.
    EXPECT_NE(std::find(cone.begin(), cone.end(), n), cone.end());
    for (std::uint32_t leaf : leaves) {
      EXPECT_EQ(std::find(cone.begin(), cone.end(), leaf), cone.end());
    }
    std::set<std::uint32_t> seen;
    const std::set<std::uint32_t> leaf_set(leaves.begin(), leaves.end());
    for (std::uint32_t v : cone) {
      for (Lit f : {g.fanin0(v), g.fanin1(v)}) {
        const std::uint32_t m = lit_node(f);
        if (!leaf_set.count(m) && g.is_and(m)) {
          EXPECT_TRUE(seen.count(m)) << "fanin after node";
        }
      }
      seen.insert(v);
    }
  }
}

TEST(TryConeTt, RejectsEscapedCut) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.and_of(a, b);
  const Lit y = g.and_of(x, c);
  g.add_po(y);
  // {x} is not a cut of y (path through c escapes).
  EXPECT_FALSE(try_cone_truth_table(g, y, {lit_node(x)}, 100).has_value());
  // {x, c} is a cut.
  EXPECT_TRUE(
      try_cone_truth_table(g, y, {lit_node(x), lit_node(c)}, 100).has_value());
}

TEST(TryConeTt, RespectsNodeBudget) {
  Aig g = random_aig(8, 300, 1, 3);
  const std::uint32_t root = lit_node(g.po(0));
  std::vector<std::uint32_t> pis;
  for (std::size_t i = 0; i < g.num_pis(); ++i) pis.push_back(g.pi_node(i));
  EXPECT_FALSE(try_cone_truth_table(g, make_lit(root), pis, 3).has_value());
}

TEST(TryConeTt, MatchesExhaustiveSimulation) {
  Aig g = random_aig(6, 80, 2, 41);
  const auto po_tts = po_truth_tables(g);
  std::vector<std::uint32_t> pis;
  for (std::size_t i = 0; i < g.num_pis(); ++i) pis.push_back(g.pi_node(i));
  for (std::size_t o = 0; o < g.num_pos(); ++o) {
    const auto tt = try_cone_truth_table(g, g.po(o), pis, 1 << 20);
    ASSERT_TRUE(tt.has_value());
    EXPECT_EQ(*tt, po_tts[o]);
  }
}

TEST(Divisors, ExcludeMffcAndRoot) {
  Aig g = random_aig(8, 120, 4, 59);
  Window window;
  for (std::uint32_t n : g.topo_order()) {
    const auto leaves = reconvergence_cut(g, n, 8);
    ASSERT_TRUE(window.simulate(g, n, leaves, 1 << 20));
    const auto divisors = window.collect_divisors(g, 30);
    const auto mffc = g.mffc_nodes(n);
    for (std::uint32_t d : divisors) {
      EXPECT_NE(d, n);
      // Inner divisors (not leaves) must avoid the MFFC.
      if (std::find(leaves.begin(), leaves.end(), d) == leaves.end()) {
        EXPECT_EQ(std::find(mffc.begin(), mffc.end(), d), mffc.end());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Window simulation against the reference cone extraction
// ---------------------------------------------------------------------------

/// The window's table of `node` equals the reference table word for word;
/// words past the reference's (k < 8) and bits past 2^k (k < 6) are zero.
void expect_same_table(const Window& window, std::uint32_t node,
                       const TruthTable& expected) {
  const WindowTable& t = window.table(node);
  const auto& words = expected.words();
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t want = i < words.size() ? words[i] : 0;
    EXPECT_EQ(t.w[i], want) << "node " << node << " word " << i << " k "
                            << expected.num_vars();
  }
}

/// The cone walk of the original hash-set implementation, kept as the
/// reference for the order of Window::cone().
std::vector<std::uint32_t> reference_cone(
    const Aig& g, std::uint32_t root,
    const std::vector<std::uint32_t>& leaves) {
  const std::set<std::uint32_t> leaf_set(leaves.begin(), leaves.end());
  std::set<std::uint32_t> visited;
  std::vector<std::uint32_t> order;
  std::vector<std::pair<std::uint32_t, int>> stack{{root, 0}};
  while (!stack.empty()) {
    auto [n, phase] = stack.back();
    stack.pop_back();
    if (phase == 1) {
      order.push_back(n);
    } else if (!visited.count(n) && !leaf_set.count(n) && g.is_and(n)) {
      visited.insert(n);
      stack.emplace_back(n, 1);
      stack.emplace_back(lit_node(g.fanin0(n)), 0);
      stack.emplace_back(lit_node(g.fanin1(n)), 0);
    }
  }
  return order;
}

/// Checks one window: accepted exactly when try_cone_truth_table succeeds,
/// and then the root (also read as a TruthTable, both polarities), every
/// divisor and every cone node carry the reference table. Returns whether
/// the window was accepted.
bool check_window(Aig& g, Window& window, std::uint32_t root,
                  const std::vector<std::uint32_t>& leaves, int max_nodes) {
  const auto expected = try_cone_truth_table(g, make_lit(root), leaves,
                                             max_nodes);
  const bool accepted = window.simulate(g, root, leaves, max_nodes);
  EXPECT_EQ(accepted, expected.has_value()) << "root " << root;
  if (!accepted || !expected) return false;
  expect_same_table(window, root, *expected);
  EXPECT_EQ(window.truth(make_lit(root)), *expected) << "root " << root;
  EXPECT_EQ(window.truth(make_lit(root, true)), ~*expected) << "root " << root;
  EXPECT_EQ(window.cone(), reference_cone(g, root, leaves)) << "root " << root;
  for (std::uint32_t d : window.collect_divisors(g, 40)) {
    const auto tt = try_cone_truth_table(g, make_lit(d), leaves, max_nodes);
    EXPECT_TRUE(tt.has_value()) << "divisor " << d;
    if (tt) expect_same_table(window, d, *tt);
  }
  return true;
}

std::vector<std::uint32_t> pi_nodes(const Aig& g) {
  std::vector<std::uint32_t> pis;
  for (std::size_t i = 0; i < g.num_pis(); ++i) pis.push_back(g.pi_node(i));
  std::sort(pis.begin(), pis.end());
  return pis;
}

TEST(Window, MatchesConeTruthTableOnReconvergenceCuts) {
  Window window;  // one window reused across graphs, as a pass reuses it
  std::set<std::size_t> leaf_counts;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    clo::Rng rng(seed);
    Aig g = clo::sat::random_aig(rng, 6 + 3 * static_cast<int>(seed % 4), 300,
                                 4);
    for (std::uint32_t n : g.topo_order()) {
      for (int max_leaves = 1; max_leaves <= kMaxWindowLeaves; ++max_leaves) {
        const auto leaves = reconvergence_cut(g, n, max_leaves);
        if (check_window(g, window, n, leaves, 400)) {
          leaf_counts.insert(leaves.size());
        }
      }
    }
  }
  for (std::size_t k = 2; k <= kMaxWindowLeaves; ++k) {
    EXPECT_TRUE(leaf_counts.count(k)) << "no window with " << k << " leaves";
  }
}

TEST(Window, MatchesConeTruthTableOverAllInputs) {
  // Windows bounded by every PI cover each leaf count 2..8, the tail
  // masking below 6 leaves, and (with a small node budget) rejection by
  // size.
  Window window;
  for (int k = 2; k <= kMaxWindowLeaves; ++k) {
    // Few inputs fold many ANDs away; draw until enough survive.
    clo::Rng rng(100 + k);
    Aig g = clo::sat::random_aig(rng, k, 60, 3);
    while (g.num_ands() < 8) g = clo::sat::random_aig(rng, k, 60, 3);
    const auto pis = pi_nodes(g);
    ASSERT_EQ(pis.size(), static_cast<std::size_t>(k));
    int accepted = 0;
    int rejected = 0;
    for (std::uint32_t n : g.topo_order()) {
      (check_window(g, window, n, pis, 1 << 20) ? accepted : rejected)++;
      (check_window(g, window, n, pis, 6) ? accepted : rejected)++;
    }
    EXPECT_GT(accepted, 0) << "k " << k;
    EXPECT_GT(rejected, 0) << "k " << k;
  }
}

TEST(Window, RejectsEscapedConesExactlyLikeReference) {
  Window window;
  int escaped = 0;
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    clo::Rng rng(200 + seed);
    Aig g = clo::sat::random_aig(rng, 10, 150, 4);
    for (std::uint32_t n : g.topo_order()) {
      auto leaves = reconvergence_cut(g, n, 8);
      // Drop one leaf: the cone escapes unless the leaf was redundant.
      if (leaves.size() > 1) {
        leaves.erase(leaves.begin() +
                     static_cast<std::ptrdiff_t>(
                         rng.next_below(leaves.size())));
      }
      (check_window(g, window, n, leaves, 400) ? accepted : escaped)++;
    }
  }
  EXPECT_GT(escaped, 0);
  EXPECT_GT(accepted, 0);
}

TEST(Window, ConstantFaninsAndSingleLeaf) {
  // z = AND(y, a) with y replaced by const 1: z's cone reaches the
  // const-0 node (complemented) inside a one-leaf window.
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit y = g.and_of(a, b);
  const Lit z = g.and_of(y, a);
  g.add_po(z);
  g.replace(lit_node(y), kLitTrue);
  Window window;
  EXPECT_TRUE(check_window(g, window, lit_node(z), {lit_node(a)}, 400));
  // With const 0 as a leaf it is a variable like any other leaf.
  EXPECT_TRUE(check_window(g, window, lit_node(z), {0, lit_node(a)}, 400));

  // Random graphs with nodes replaced by constants and not cleaned up.
  int with_const_leaf = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    clo::Rng rng(300 + seed);
    Aig r = clo::sat::random_aig(rng, 8, 120, 4);
    const auto order = r.topo_order();
    for (int i = 0; i < 6; ++i) {
      const std::uint32_t victim = order[rng.next_below(order.size())];
      if (!r.is_and(victim)) continue;
      r.replace(victim, rng.next_bool() ? kLitTrue : kLitFalse);
    }
    const auto pis = pi_nodes(r);
    for (std::uint32_t n : r.topo_order()) {
      check_window(r, window, n, pis, 1 << 20);
      const auto leaves = reconvergence_cut(r, n, 8);
      if (!leaves.empty() && leaves[0] == 0) ++with_const_leaf;
      check_window(r, window, n, leaves, 400);
    }
  }
  EXPECT_GT(with_const_leaf, 0);
}

TEST(Window, MoreThanEightLeavesThrows) {
  clo::Rng rng(7);
  Aig g = clo::sat::random_aig(rng, 9, 40, 1);
  Window window;
  EXPECT_THROW(window.simulate(g, lit_node(g.po(0)), pi_nodes(g), 400),
               std::invalid_argument);
}

}  // namespace
