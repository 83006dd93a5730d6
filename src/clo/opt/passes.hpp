#pragma once
// The logic optimization passes forming the paper's transformation set
// S = {rw, rwz, rf, rfz, rs, rsz, b} — from-scratch equivalents of ABC's
// rewrite / refactor / resub / balance commands. Every pass preserves the
// circuit function (validated by the test suite's equivalence checks) and
// ends with Aig::cleanup() so reported node counts are exact.

#include <cstddef>
#include <string>

#include "clo/aig/aig.hpp"

namespace clo::opt {

/// Before/after metrics of one pass application.
struct PassStats {
  std::string name;
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
  int depth_before = 0;
  int depth_after = 0;
  int accepted_moves = 0;
  double seconds = 0.0;
};

// Each pass has one setting; its bounds are fixed constants in its source
// (rewrite: 4-leaf cuts, 8 per node, 64-node cones; refactor: 8-leaf
// reconvergence cuts, 400-node cones; resub: 8-leaf windows, 40 divisors,
// the first 16 of them for 2-resub).
struct RewriteParams {
  bool zero_cost = false;  ///< accept gain == 0 moves (ABC's -z)
};

struct RefactorParams {
  bool zero_cost = false;
};

struct ResubParams {
  bool zero_cost = false;
};

/// Depth-oriented AND-tree rebalancing (ABC's `balance`).
PassStats balance(aig::Aig& g);

/// DAG-aware cut rewriting (ABC's `rewrite` / `rewrite -z`).
PassStats rewrite(aig::Aig& g, const RewriteParams& params = {});

/// Reconvergence-cone collapse + resynthesis (ABC's `refactor` / `-z`).
PassStats refactor(aig::Aig& g, const RefactorParams& params = {});

/// Windowed resubstitution (ABC's `resub` / `-z`).
PassStats resub(aig::Aig& g, const ResubParams& params = {});

}  // namespace clo::opt
