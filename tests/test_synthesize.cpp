// Pins the resynthesis engine behind rewriting and refactoring:
// opt::build_function must give the same structure, node for node, as when
// the table below was recorded. The golden substrate fixture only sees the
// functions the passes happen to reach; this covers every 4-input function
// (rewrite's cuts) and seeded random functions of 5..8 inputs (refactor's
// windows). Each built structure is replayed into a fresh Aig, checked
// against the input function with po_truth_tables, and hashed: FNV-1a over
// the fanins of every AND node in replay order, then the root literal.
//
// To re-record after an intended change of structure, run the test: every
// mismatching row prints its current value in the table's format.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "clo/aig/simulate.hpp"
#include "clo/opt/mini_aig.hpp"
#include "clo/opt/synthesize.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;
using aig::Aig;
using aig::Lit;

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Builds `words` (a function of `k` inputs, bits past 2^k zero), replays
/// it into a fresh Aig, checks its function and folds its structure into
/// `hash`. Returns the number of AND nodes replayed.
std::size_t build_and_hash(const std::uint64_t (&words)[4], int k,
                           Fnv1a& hash) {
  opt::MiniAig mini(k);
  const Lit root =
      opt::build_function(mini, aig::TruthTable::from_words(k, words));
  Aig g;
  std::vector<Lit> leaves;
  for (int i = 0; i < k; ++i) leaves.push_back(g.add_pi());
  const Lit out = mini.replay(g, root, leaves);
  g.add_po(out);
  for (std::uint32_t n = 0; n < g.num_slots(); ++n) {
    if (!g.is_and(n)) continue;
    hash.add(g.fanin0(n));
    hash.add(g.fanin1(n));
  }
  hash.add(out);
  const auto tt = aig::po_truth_tables(g)[0];
  const auto& got = tt.words();
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t want = words[i];
    const std::uint64_t have = i < got.size() ? got[i] : 0;
    EXPECT_EQ(have, want) << "k " << k << " word " << i;
  }
  return g.num_ands();
}

struct PinnedRow {
  int num_vars;
  int functions;
  std::uint64_t structure_fnv1a;
  std::size_t total_ands;
};

// Recorded before rewrite and refactor built each candidate once.
const PinnedRow kPinned[] = {
    {4, 65536, 0x85a23e03594fc6e4ULL, 602102},
    {5, 2000, 0x101bdbbdcdf2417fULL, 36655},
    {6, 2000, 0x7d7cf8c636b76944ULL, 73978},
    {7, 2000, 0x4b92898ae8048514ULL, 138728},
    {8, 2000, 0x8a5f5917cc187c2eULL, 253226},
};

TEST(BuildFunction, StructureIsPinned) {
  for (const PinnedRow& row : kPinned) {
    const int k = row.num_vars;
    Fnv1a hash;
    std::size_t total_ands = 0;
    if (k == 4) {
      for (int bits = 0; bits < row.functions; ++bits) {
        const std::uint64_t words[4] = {static_cast<std::uint64_t>(bits), 0, 0,
                                        0};
        total_ands += build_and_hash(words, k, hash);
      }
    } else {
      // Uniform, sparse (AND of two draws) and dense (OR of two draws)
      // functions in turn, so the decomposition meets constant and
      // single-literal cofactors as well as dense ones.
      Rng rng(900 + k);
      const int num_words = k <= 6 ? 1 : 1 << (k - 6);
      const std::uint64_t tail = k < 6 ? (1ULL << (1 << k)) - 1 : ~0ULL;
      for (int i = 0; i < row.functions; ++i) {
        std::uint64_t words[4] = {0, 0, 0, 0};
        for (int w = 0; w < num_words; ++w) {
          const std::uint64_t a = rng.next_u64();
          const std::uint64_t b = rng.next_u64();
          words[w] = (i % 3 == 0 ? a : i % 3 == 1 ? a & b : a | b) & tail;
        }
        total_ands += build_and_hash(words, k, hash);
      }
    }
    EXPECT_EQ(hash.h, row.structure_fnv1a) << "k " << k;
    EXPECT_EQ(total_ands, row.total_ands) << "k " << k;
    if (hash.h != row.structure_fnv1a || total_ands != row.total_ands) {
      std::printf("    {%d, %d, 0x%016llxULL, %zu},\n", k, row.functions,
                  static_cast<unsigned long long>(hash.h), total_ands);
    }
  }
}

}  // namespace
