#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <tuple>

#include "clo/aig/simulate.hpp"
#include "clo/circuits/generators.hpp"
#include "clo/opt/mini_aig.hpp"
#include "clo/opt/passes.hpp"
#include "clo/opt/synthesize.hpp"
#include "clo/opt/flows.hpp"
#include "clo/opt/transform.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;
using aig::Aig;
using aig::Lit;

// ---------------------------------------------------------------------------
// MiniAig + synthesis
// ---------------------------------------------------------------------------

TEST(MiniAig, FoldsAndHashes) {
  opt::MiniAig mini(3);
  const Lit a = mini.leaf(0), b = mini.leaf(1);
  EXPECT_EQ(mini.and_of(a, aig::kLitTrue), a);
  EXPECT_EQ(mini.and_of(a, aig::kLitFalse), aig::kLitFalse);
  EXPECT_EQ(mini.and_of(a, b), mini.and_of(b, a));
  EXPECT_EQ(mini.num_ands(), 1);
  EXPECT_EQ(mini.cone_size(mini.and_of(a, b)), 1);
}

TEST(MiniAig, ReplayMatchesFunction) {
  opt::MiniAig mini(2);
  const Lit f = mini.xor_of(mini.leaf(0), mini.leaf(1));
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit out = mini.replay(g, f, {a, b});
  g.add_po(out);
  EXPECT_TRUE(aig::simulate(g, {true, false})[0]);
  EXPECT_FALSE(aig::simulate(g, {true, true})[0]);
}

/// Builds `tt` over `leaves` into `g` the way rewrite and refactor do: once
/// into a MiniAig, then replayed. Returns the literal and the number of AND
/// nodes the replay added to `g`.
std::pair<Lit, int> build_into(Aig& g, const aig::TruthTable& tt,
                               const std::vector<Lit>& leaves) {
  opt::MiniAig mini(tt.num_vars());
  const Lit root = opt::build_function(mini, tt);
  const std::size_t before = g.num_ands();
  const Lit lit = mini.replay(g, root, leaves);
  return {lit, static_cast<int>(g.num_ands() - before)};
}

TEST(Synthesize, AllTwoVarFunctions) {
  for (int bits = 0; bits < 16; ++bits) {
    const auto tt =
        aig::TruthTable::from_u16(static_cast<std::uint16_t>(bits), 2);
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    g.add_po(build_into(g, tt, {a, b}).first);
    const auto result = aig::po_truth_tables(g)[0];
    EXPECT_EQ(result.to_u16() & 0xf, tt.to_u16() & 0xf) << "bits=" << bits;
  }
}

TEST(Synthesize, RandomFourVarFunctionsCorrectAndSmall) {
  clo::Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const auto tt = aig::TruthTable::from_u16(
        static_cast<std::uint16_t>(rng.next_u64() & 0xffff), 4);
    Aig g;
    std::vector<Lit> leaves;
    for (int i = 0; i < 4; ++i) leaves.push_back(g.add_pi());
    const auto [lit, added_nodes] = build_into(g, tt, leaves);
    g.add_po(lit);
    EXPECT_EQ(aig::po_truth_tables(g)[0].to_u16(), tt.to_u16());
    EXPECT_LE(added_nodes, 17);  // generous bound for any 4-var function
  }
}

TEST(Synthesize, XorChainIsCompact) {
  // 4-input XOR should synthesize to ~9 AND nodes (3 XORs), not the
  // 2^3-cube SOP.
  auto x = aig::TruthTable::variable(4, 0);
  for (int v = 1; v < 4; ++v) x = x ^ aig::TruthTable::variable(4, v);
  opt::MiniAig mini(4);
  EXPECT_LE(mini.cone_size(opt::build_function(mini, x)), 9);
}

TEST(Synthesize, SharedSubstructureReused) {
  Aig g;
  std::vector<Lit> leaves;
  for (int i = 0; i < 4; ++i) leaves.push_back(g.add_pi());
  const auto tt =
      aig::TruthTable::variable(4, 0) & aig::TruthTable::variable(4, 1);
  const auto first = build_into(g, tt, leaves);
  EXPECT_EQ(first.second, 1);
  const auto second = build_into(g, tt, leaves);
  EXPECT_EQ(second.second, 0);  // strash hit
  EXPECT_EQ(second.first, first.first);
}

// ---------------------------------------------------------------------------
// Pass properties: every pass preserves function; rw/rf/rs never grow the
// node count; balance never grows depth.
// ---------------------------------------------------------------------------

class PassPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, opt::Transform>> {};

TEST_P(PassPropertyTest, PreservesFunctionAndImproves) {
  const auto& [name, transform] = GetParam();
  Aig g = circuits::make_benchmark(name);
  const Aig original = g;
  const auto nodes_before = g.num_ands();
  const auto depth_before = g.depth();
  const auto stats = opt::apply_transform(g, transform);
  EXPECT_NO_THROW(g.check());
  clo::Rng rng(11);
  const auto cec = aig::cec(original, g, rng, 64);
  EXPECT_TRUE(cec.equivalent) << name << " " << stats.name << " PO "
                              << cec.failing_po;
  if (transform == opt::Transform::kB) {
    EXPECT_LE(g.depth(), depth_before) << name;
  } else {
    EXPECT_LE(g.num_ands(), nodes_before) << name << " " << stats.name;
  }
  EXPECT_EQ(stats.nodes_after, g.num_ands());
}

INSTANTIATE_TEST_SUITE_P(
    AllTransformsOnCircuits, PassPropertyTest,
    ::testing::Combine(
        ::testing::Values("ctrl", "int2float", "c432", "c880", "router",
                          "cavlc", "priority"),
        ::testing::Values(opt::Transform::kRw, opt::Transform::kRwz,
                          opt::Transform::kRf, opt::Transform::kRfz,
                          opt::Transform::kRs, opt::Transform::kRsz,
                          opt::Transform::kB)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             opt::transform_name(std::get<1>(info.param));
    });

TEST(Passes, RewriteReducesKnownRedundancy) {
  // A deliberately redundant structure: f = (a&b) | (a&b&c) == a&b.
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit ab = g.and_of(a, b);
  const Lit abc = g.and_of(ab, c);
  g.add_po(g.or_of(ab, abc));
  const auto before = g.num_ands();
  opt::rewrite(g);
  EXPECT_LT(g.num_ands(), before);
  // Final function is a&b.
  const auto tt = aig::po_truth_tables(g)[0];
  EXPECT_EQ(tt.to_u16(),
            (aig::TruthTable::variable(3, 0) & aig::TruthTable::variable(3, 1))
                .to_u16());
}

TEST(Passes, ResubFindsSharedDivisor) {
  // g1 = a&b (kept alive by po), g2 = !(!a | !b) & c — resub can express
  // the inner NOT(OR) through the existing divisor a&b.
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit ab = g.and_of(a, b);
  g.add_po(ab);
  // Build (a & b) & c through a different structure: m = mux(a, b, 0) & c.
  const Lit m = g.and_of(g.or_of(g.and_of(a, b), aig::kLitFalse), c);
  g.add_po(m);
  const Aig orig = g;
  opt::resub(g, opt::ResubParams{.zero_cost = true});
  clo::Rng rng(3);
  EXPECT_TRUE(aig::cec(orig, g, rng).equivalent);
}

TEST(Passes, BalanceReducesChainDepth) {
  // A long AND chain over 16 PIs: depth 15 -> balanced depth 4.
  Aig g;
  Lit acc = aig::kLitTrue;
  for (int i = 0; i < 16; ++i) acc = g.and_of(acc, g.add_pi());
  g.add_po(acc);
  EXPECT_EQ(g.depth(), 15);
  opt::balance(g);
  EXPECT_EQ(g.depth(), 4);
  EXPECT_EQ(g.num_ands(), 15u);
  // Still the AND of all inputs.
  std::vector<bool> all_true(16, true);
  EXPECT_TRUE(aig::simulate(g, all_true)[0]);
  all_true[7] = false;
  EXPECT_FALSE(aig::simulate(g, all_true)[0]);
}

TEST(Passes, BalanceHandlesComplementedChains) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit d = g.add_pi();
  // NAND chain: depth cannot be collapsed across complemented edges,
  // but function must hold.
  const Lit x = g.nand_of(g.nand_of(g.nand_of(a, b), c), d);
  g.add_po(x);
  const Aig orig = g;
  opt::balance(g);
  clo::Rng rng(4);
  EXPECT_TRUE(aig::cec(orig, g, rng).equivalent);
}

TEST(Passes, ZeroCostVariantsAcceptMoreMoves) {
  Aig g1 = circuits::make_benchmark("cavlc");
  Aig g2 = g1;
  const auto s1 = opt::rewrite(g1, opt::RewriteParams{});
  const auto s2 = opt::rewrite(g2, opt::RewriteParams{.zero_cost = true});
  EXPECT_GE(s2.accepted_moves, s1.accepted_moves);
}

TEST(Transform, NamesRoundTrip) {
  for (opt::Transform t : opt::all_transforms()) {
    EXPECT_EQ(opt::transform_from_name(opt::transform_name(t)), t);
  }
  EXPECT_THROW(opt::transform_from_name("bogus"), std::invalid_argument);
}

TEST(Transform, ParseSequence) {
  const auto seq = opt::parse_sequence("rw; rwz,b\nrfz");
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[0], opt::Transform::kRw);
  EXPECT_EQ(seq[1], opt::Transform::kRwz);
  EXPECT_EQ(seq[2], opt::Transform::kB);
  EXPECT_EQ(seq[3], opt::Transform::kRfz);
  EXPECT_EQ(opt::sequence_to_string(seq), "rw;rwz;b;rfz");
}

TEST(Transform, RandomSequenceUsesWholeAlphabet) {
  clo::Rng rng(6);
  std::set<opt::Transform> seen;
  for (int i = 0; i < 30; ++i) {
    for (auto t : opt::random_sequence(20, rng)) seen.insert(t);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(opt::kNumTransforms));
}

TEST(Transform, RunSequenceEquivalenceOnArithmetic) {
  Aig g = circuits::make_benchmark("square");
  const Aig orig = g;
  clo::Rng rng(12);
  opt::run_sequence(g, opt::random_sequence(10, rng));
  EXPECT_TRUE(aig::cec(orig, g, rng).equivalent);
}

TEST(Transform, SequenceOrderMattersForQoR) {
  // The premise of the whole paper: different sequences, different results.
  Aig a = circuits::make_benchmark("sqrt");
  Aig b = circuits::make_benchmark("sqrt");
  opt::run_sequence(a, opt::parse_sequence("b;rw;rf;b;rw;rwz;b;rfz;rwz;b"));
  opt::run_sequence(b, opt::parse_sequence("rs;rs;rs;rs;rs;rs;rs;rs;rs;rs"));
  EXPECT_NE(a.num_ands(), b.num_ands());
}


TEST(Flows, PresetsParseAndWork) {
  const auto& flows = opt::preset_flows();
  EXPECT_GE(flows.size(), 4u);
  for (const auto& flow : flows) {
    EXPECT_FALSE(flow.sequence.empty()) << flow.name;
    Aig g = circuits::make_benchmark("c880");
    const Aig orig = g;
    opt::run_sequence(g, flow.sequence);
    clo::Rng rng(19);
    EXPECT_TRUE(aig::cec(orig, g, rng).equivalent) << flow.name;
    EXPECT_LE(g.num_ands(), orig.num_ands()) << flow.name;
  }
  EXPECT_THROW(opt::preset_flow("nope"), std::invalid_argument);
  EXPECT_EQ(opt::sequence_to_string(opt::preset_flow("resyn2")),
            "b;rw;rf;b;rw;rwz;b;rfz;rwz;b");
}

TEST(Passes, TwoLevelResubFindsAndOrStructure) {
  // f = a & (b | c) built redundantly; with divisors a, (b|c) available a
  // two-level resub can reconstruct it. Mainly: equivalence + no growth.
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit d = g.add_pi();
  const Lit bc = g.or_of(b, c);
  g.add_po(bc);
  g.add_po(a);
  // A clunkier computation of a&(b|c): mux(b, a, a&c).
  const Lit clunky = g.mux_of(b, a, g.and_of(a, c));
  g.add_po(clunky);
  g.add_po(g.and_of(clunky, d));
  const Aig orig = g;
  const auto before = g.num_ands();
  opt::ResubParams params;
  params.zero_cost = true;
  opt::resub(g, params);
  clo::Rng rng(21);
  EXPECT_TRUE(aig::cec(orig, g, rng).equivalent);
  EXPECT_LE(g.num_ands(), before);
}

}  // namespace
