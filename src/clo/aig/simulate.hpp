#pragma once
// Bit-parallel simulation and simulation-based combinational equivalence
// checking. Every synthesis transformation in this project is validated
// against these: exhaustively for small PI counts, with random vectors for
// large circuits (the standard "semi-formal" CEC used in regressions).

#include <cstdint>
#include <vector>

#include "clo/aig/aig.hpp"
#include "clo/aig/truth.hpp"
#include "clo/util/rng.hpp"

namespace clo::aig {

/// Simulate one 64-pattern word per PI; returns one word per PO.
std::vector<std::uint64_t> simulate_words(
    const Aig& g, const std::vector<std::uint64_t>& pi_words);

/// Simulate single Boolean input vector; returns PO values.
std::vector<bool> simulate(const Aig& g, const std::vector<bool>& pi_values);

/// Exhaustive truth tables of all POs (requires num_pis <= 16).
std::vector<TruthTable> po_truth_tables(const Aig& g);

/// Result of an equivalence check.
struct CecResult {
  bool equivalent = true;
  /// Valid when !equivalent: index of first differing PO.
  std::size_t failing_po = 0;
  bool exhaustive = false;
  std::size_t patterns_checked = 0;
};

/// Combinational equivalence check by simulation. Uses exhaustive
/// enumeration when num_pis <= exhaustive_limit, else `random_words`
/// 64-pattern random rounds. Interfaces must match (same PI/PO counts).
CecResult cec(const Aig& a, const Aig& b, clo::Rng& rng,
              int random_words = 256, int exhaustive_limit = 14);

}  // namespace clo::aig
