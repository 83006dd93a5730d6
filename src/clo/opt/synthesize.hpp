#pragma once
// Resynthesis of a cut/cone function back into AIG structure. Two
// strategies are built into the caller's MiniAig and the smaller one wins:
//  * recursive Shannon/AND/XOR decomposition (BDD-flavored, memoized),
//  * ISOP covers of the function and its complement (SOP-flavored).
// Rewriting (k <= 4 cuts) and refactoring (k <= 8 windows) build each
// candidate once with it, price it by MiniAig::cone_size and commit it
// with MiniAig::replay.

#include "clo/aig/aig.hpp"
#include "clo/aig/truth.hpp"
#include "clo/opt/mini_aig.hpp"

namespace clo::opt {

/// Build `tt` over `mini.leaf(i)` inputs; returns the output literal.
/// Tries decomposition and both-polarity SOP, keeps the smaller.
aig::Lit build_function(MiniAig& mini, const aig::TruthTable& tt);

}  // namespace clo::opt
