#include <gtest/gtest.h>

#include <algorithm>

#include "clo/aig/aig.hpp"
#include "clo/aig/simulate.hpp"
#include "clo/aig/window.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo::aig;

TEST(Lit, PackingRoundTrip) {
  const Lit l = make_lit(42, true);
  EXPECT_EQ(lit_node(l), 42u);
  EXPECT_TRUE(lit_is_compl(l));
  EXPECT_EQ(lit_not(l), make_lit(42, false));
  EXPECT_EQ(lit_regular(l), make_lit(42, false));
  EXPECT_EQ(lit_notc(make_lit(3), true), make_lit(3, true));
  EXPECT_EQ(lit_notc(make_lit(3), false), make_lit(3));
}

TEST(Aig, ConstantFolding) {
  Aig g;
  const Lit a = g.add_pi();
  EXPECT_EQ(g.and_of(a, kLitFalse), kLitFalse);
  EXPECT_EQ(g.and_of(a, kLitTrue), a);
  EXPECT_EQ(g.and_of(a, a), a);
  EXPECT_EQ(g.and_of(a, lit_not(a)), kLitFalse);
  EXPECT_EQ(g.num_ands(), 0u);
}

TEST(Aig, StructuralHashing) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.and_of(a, b);
  const Lit y = g.and_of(b, a);  // commuted -> same node
  EXPECT_EQ(x, y);
  EXPECT_EQ(g.num_ands(), 1u);
  const Lit z = g.and_of(lit_not(a), b);
  EXPECT_NE(x, z);
  EXPECT_EQ(g.num_ands(), 2u);
}

TEST(Aig, ProbeDoesNotCreate) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  EXPECT_FALSE(g.probe_and(a, b).has_value());
  EXPECT_EQ(g.num_ands(), 0u);
  const Lit x = g.and_of(a, b);
  auto hit = g.probe_and(b, a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, x);
  EXPECT_EQ(*g.probe_and(a, kLitTrue), a);
}

TEST(Aig, DerivedGatesSimulateCorrectly) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  g.add_po(g.xor_of(a, b), "xor");
  g.add_po(g.or_of(a, b), "or");
  g.add_po(g.mux_of(c, a, b), "mux");
  g.add_po(g.maj_of(a, b, c), "maj");
  for (int m = 0; m < 8; ++m) {
    const bool va = m & 1, vb = m & 2, vc = m & 4;
    const auto out = simulate(g, {va, vb, vc});
    EXPECT_EQ(out[0], va != vb);
    EXPECT_EQ(out[1], va || vb);
    EXPECT_EQ(out[2], vc ? va : vb);
    EXPECT_EQ(out[3], (va && vb) || (va && vc) || (vb && vc));
  }
}

TEST(Aig, DepthAndLevels) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.and_of(a, b);
  const Lit y = g.and_of(x, c);
  g.add_po(y);
  EXPECT_EQ(g.depth(), 2);
  const auto levels = g.levels();
  EXPECT_EQ(levels[lit_node(x)], 1);
  EXPECT_EQ(levels[lit_node(y)], 2);
}

TEST(Aig, TopoOrderRespectsFanins) {
  Aig g;
  clo::Rng rng(1);
  std::vector<Lit> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(g.add_pi());
  for (int i = 0; i < 100; ++i) {
    const Lit a = pool[rng.next_below(pool.size())];
    const Lit b = pool[rng.next_below(pool.size())];
    pool.push_back(lit_notc(g.and_of(a, b), rng.next_bool()));
  }
  g.add_po(pool.back());
  const auto order = g.topo_order();
  std::vector<int> position(g.num_slots(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[order[i]] = static_cast<int>(i);
  }
  for (std::uint32_t n : order) {
    for (Lit f : {g.fanin0(n), g.fanin1(n)}) {
      if (g.is_and(lit_node(f))) {
        EXPECT_LT(position[lit_node(f)], position[n]);
      }
    }
  }
}

TEST(Aig, ReplacePreservesFunction) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.and_of(a, b);
  const Lit y = g.and_of(x, lit_not(a));  // y == 0 semantically
  g.add_po(y, "y");
  g.add_po(x, "x");
  // Replace y's node with const0 (a legal, function-preserving rewrite).
  g.replace(lit_node(y), kLitFalse);
  g.check();
  const auto out = simulate(g, {true, true});
  EXPECT_FALSE(out[0]);
  EXPECT_TRUE(out[1]);
}

TEST(Aig, ReplaceKillsMffc) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.and_of(a, b);
  const Lit y = g.and_of(x, c);
  g.add_po(y);
  EXPECT_EQ(g.num_ands(), 2u);
  // Replacing y by a single fresh node kills x (only referenced via y).
  const Lit z = g.and_of(a, c);
  g.replace(lit_node(y), z);
  g.check();
  EXPECT_EQ(g.num_ands(), 1u);
  EXPECT_TRUE(g.is_dead(lit_node(x)));
  EXPECT_TRUE(g.is_dead(lit_node(y)));
}

TEST(Aig, ReplaceWithComplementedLiteral) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.and_of(a, b);
  const Lit top = g.and_of(x, a);
  g.add_po(top, "top");
  g.add_po(lit_not(x), "nx");
  // Swap node x's function from a&b to a|b via a complemented literal:
  // a|b = NOT(!a & !b). Fanouts and the complemented PO must follow.
  const Lit a_or_b = lit_not(g.and_of(lit_not(a), lit_not(b)));
  ASSERT_TRUE(lit_is_compl(a_or_b));
  g.replace(lit_node(x), a_or_b);
  g.check();
  for (int m = 0; m < 4; ++m) {
    const bool va = m & 1, vb = m & 2;
    const auto out = simulate(g, {va, vb});
    EXPECT_EQ(out[0], (va || vb) && va);
    EXPECT_EQ(out[1], !(va || vb));
  }
}

TEST(Aig, MffcSize) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.and_of(a, b);    // shared
  const Lit y = g.and_of(x, c);    // in MFFC of y only
  const Lit z = g.and_of(x, a);
  g.add_po(y);
  g.add_po(z);
  // MFFC(y) = {y} since x is shared with z.
  EXPECT_EQ(g.mffc_size(lit_node(y)), 1);
  EXPECT_EQ(g.mffc_size(lit_node(z)), 1);
  // If z dies, x belongs solely to y's cone.
  g.set_po(1, y);
  g.check();
  EXPECT_EQ(g.mffc_size(lit_node(y)), 2);
}

TEST(Aig, MffcNodesContents) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.and_of(a, b);
  const Lit y = g.and_of(x, c);
  g.add_po(y);
  const auto mffc = g.mffc_nodes(lit_node(y));
  EXPECT_EQ(mffc.size(), 2u);
  EXPECT_NE(std::find(mffc.begin(), mffc.end(), lit_node(x)), mffc.end());
  EXPECT_NE(std::find(mffc.begin(), mffc.end(), lit_node(y)), mffc.end());
}

TEST(Aig, CleanupDropsDanglingAndRefolds) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.and_of(a, b);
  g.and_of(x, b);  // dangling node, never referenced by a PO
  g.add_po(x);
  EXPECT_EQ(g.num_ands(), 2u);
  g.cleanup();
  g.check();
  EXPECT_EQ(g.num_ands(), 1u);
  EXPECT_EQ(g.num_pis(), 2u);
  EXPECT_EQ(g.num_pos(), 1u);
}

TEST(Aig, CleanupPreservesNamesAndFunction) {
  Aig g;
  const Lit a = g.add_pi("alpha");
  const Lit b = g.add_pi("beta");
  g.add_po(g.xor_of(a, b), "result");
  Aig before = g;
  g.cleanup();
  EXPECT_EQ(g.pi_name(0), "alpha");
  EXPECT_EQ(g.po_name(0), "result");
  clo::Rng rng(2);
  EXPECT_TRUE(cec(before, g, rng).equivalent);
}

TEST(Aig, SweepRemovesUnreferencedCone) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit keep = g.and_of(a, b);
  g.add_po(keep);
  const Lit t1 = g.and_of(lit_not(a), b);
  const Lit t2 = g.and_of(t1, keep);
  EXPECT_EQ(g.num_ands(), 3u);
  g.sweep(t2);
  EXPECT_EQ(g.num_ands(), 1u);
  EXPECT_FALSE(g.is_dead(lit_node(keep)));
  g.check();
}

TEST(Aig, ReachesFindsTargetInsideCone) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.and_of(a, b);
  const Lit y = g.and_of(x, a);
  g.add_po(y);
  EXPECT_TRUE(g.reaches(y, lit_node(x), {}));
  EXPECT_FALSE(g.reaches(x, lit_node(y), {}));
  // Boundary blocks traversal.
  EXPECT_FALSE(g.reaches(y, lit_node(x), {lit_node(y)}));
}

TEST(Aig, CheckDetectsConsistency) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  g.add_po(g.and_of(a, b));
  EXPECT_NO_THROW(g.check());
}

TEST(Simulate, WordLevelMatchesBitLevel) {
  Aig g;
  clo::Rng rng(17);
  std::vector<Lit> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(g.add_pi());
  for (int i = 0; i < 60; ++i) {
    const Lit a = pool[rng.next_below(pool.size())];
    const Lit b = pool[rng.next_below(pool.size())];
    pool.push_back(lit_notc(g.and_of(a, b), rng.next_bool()));
  }
  g.add_po(pool.back());
  g.add_po(pool[pool.size() / 2]);
  // Compare word-parallel sim against 64 separate single-bit sims.
  std::vector<std::uint64_t> words(6);
  for (auto& w : words) w = rng.next_u64();
  const auto word_out = simulate_words(g, words);
  for (int bit = 0; bit < 64; ++bit) {
    std::vector<bool> in(6);
    for (int i = 0; i < 6; ++i) in[i] = (words[i] >> bit) & 1;
    const auto out = simulate(g, in);
    for (std::size_t o = 0; o < out.size(); ++o) {
      EXPECT_EQ(out[o], static_cast<bool>((word_out[o] >> bit) & 1));
    }
  }
}

TEST(Simulate, PoTruthTables) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  g.add_po(g.and_of(a, b));
  g.add_po(g.xor_of(a, b));
  const auto tts = po_truth_tables(g);
  EXPECT_EQ(tts[0].to_u16() & 0xf, 0x8);  // AND
  EXPECT_EQ(tts[1].to_u16() & 0xf, 0x6);  // XOR
}

TEST(Simulate, ConeTruthTable) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.and_of(a, b);
  const Lit y = g.and_of(x, lit_not(c));
  g.add_po(y);
  Window window;
  ASSERT_TRUE(window.simulate(g, lit_node(y),
                              {lit_node(a), lit_node(b), lit_node(c)}, 10));
  const auto tt = window.truth(y);
  // y = a & b & !c
  for (int m = 0; m < 8; ++m) {
    const bool expected = (m & 1) && (m & 2) && !(m & 4);
    EXPECT_EQ(tt.get_bit(m), expected) << "minterm " << m;
  }
}

TEST(Cec, DetectsEquivalenceAndDifference) {
  Aig g1, g2, g3;
  for (Aig* g : {&g1, &g2, &g3}) {
    const Lit a = g->add_pi();
    const Lit b = g->add_pi();
    if (g == &g3) {
      g->add_po(g->or_of(a, b));
    } else if (g == &g1) {
      g->add_po(g->and_of(a, b));
    } else {
      // DeMorgan form of AND.
      g->add_po(lit_not(g->or_of(lit_not(a), lit_not(b))));
    }
  }
  clo::Rng rng(5);
  EXPECT_TRUE(cec(g1, g2, rng).equivalent);
  const auto bad = cec(g1, g3, rng);
  EXPECT_FALSE(bad.equivalent);
  EXPECT_EQ(bad.failing_po, 0u);
}

TEST(Cec, LargeRandomEquivalentAfterCleanup) {
  Aig g;
  clo::Rng rng(23);
  std::vector<Lit> pool;
  for (int i = 0; i < 20; ++i) pool.push_back(g.add_pi());
  for (int i = 0; i < 500; ++i) {
    const Lit a = pool[rng.next_below(pool.size())];
    const Lit b = pool[rng.next_below(pool.size())];
    pool.push_back(lit_notc(g.and_of(a, b), rng.next_bool()));
  }
  for (int i = 0; i < 10; ++i) {
    g.add_po(pool[pool.size() - 1 - 7 * i]);
  }
  Aig copy = g;
  copy.cleanup();
  EXPECT_TRUE(cec(g, copy, rng).equivalent);
}

}  // namespace
