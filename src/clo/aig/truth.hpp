#pragma once
// Bit-parallel truth tables over up to 16 variables, plus the
// Minato-Morreale irredundant sum-of-products (ISOP). Rewriting and
// refactoring simulate cone functions in an aig::Window (at most 8 leaves,
// inline words) and read them out as TruthTables to re-synthesize them
// (opt::build_function: decomposition and ISOP); the mapper and resub use
// the window's inline words directly. po_truth_tables uses the full 16
// variables for exhaustive equivalence checks.

#include <cstdint>
#include <string>
#include <vector>

namespace clo::aig {

/// Truth table over `num_vars` variables packed in 64-bit words
/// (bit i of the table = function value on minterm i).
class TruthTable {
 public:
  TruthTable() : num_vars_(0), words_(1, 0) {}
  explicit TruthTable(int num_vars);

  static TruthTable constant(int num_vars, bool value);
  /// Elementary table of variable `var` over `num_vars` variables.
  static TruthTable variable(int num_vars, int var);
  /// Table whose words are the first words() of `words`; bits past 2^n
  /// are cleared.
  static TruthTable from_words(int num_vars, const std::uint64_t* words);

  int num_vars() const { return num_vars_; }
  std::size_t num_bits() const { return std::size_t{1} << num_vars_; }
  const std::vector<std::uint64_t>& words() const { return words_; }

  bool get_bit(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set_bit(std::size_t i, bool v);

  bool is_const0() const;
  bool is_const1() const;
  int count_ones() const;

  /// True if the function depends on variable `var`.
  bool has_var(int var) const;

  TruthTable operator~() const;
  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  bool operator==(const TruthTable& o) const;
  bool operator!=(const TruthTable& o) const { return !(*this == o); }

  /// Negative / positive cofactor w.r.t. `var` (result keeps num_vars).
  TruthTable cofactor0(int var) const;
  TruthTable cofactor1(int var) const;

  /// Binary string, minterm 2^n-1 first (matches ABC's print style).
  std::string to_binary_string() const;

  /// 16-bit value for 4-variable tables (requires num_vars <= 4).
  std::uint16_t to_u16() const;
  static TruthTable from_u16(std::uint16_t bits, int num_vars = 4);

 private:
  void mask_tail();
  int num_vars_;
  std::vector<std::uint64_t> words_;
};

/// A product term: `mask` marks participating variables, `polarity` their
/// phase (bit set = positive literal). Cube value = AND of literals.
struct Cube {
  std::uint32_t mask = 0;
  std::uint32_t polarity = 0;
  int num_literals() const { return __builtin_popcount(mask); }
};

/// Minato-Morreale ISOP: irredundant SOP covering exactly `on` (ISOP of the
/// completely specified function when on == don't-care bound).
/// Returns cubes whose OR equals `on`.
std::vector<Cube> isop(const TruthTable& on);

/// Evaluate a cube list back to a truth table (testing helper).
TruthTable eval_sop(const std::vector<Cube>& cubes, int num_vars);

/// Total literal count of an SOP.
int sop_literals(const std::vector<Cube>& cubes);

}  // namespace clo::aig
