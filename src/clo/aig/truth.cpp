#include "clo/aig/truth.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace clo::aig {
namespace {

// Repeating patterns for variables 0..5 within a 64-bit word.
constexpr std::uint64_t kVarMasks[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};

}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0 || num_vars > 16) {
    throw std::invalid_argument("TruthTable supports 0..16 variables");
  }
  const std::size_t bits = std::size_t{1} << num_vars;
  words_.assign(bits <= 64 ? 1 : bits / 64, 0);
}

TruthTable TruthTable::constant(int num_vars, bool value) {
  TruthTable t(num_vars);
  if (value) {
    for (auto& w : t.words_) w = ~0ULL;
    t.mask_tail();
  }
  return t;
}

TruthTable TruthTable::variable(int num_vars, int var) {
  TruthTable t(num_vars);
  if (var < 0 || var >= num_vars) {
    throw std::invalid_argument("variable index out of range");
  }
  if (var < 6) {
    for (auto& w : t.words_) w = kVarMasks[var];
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < t.words_.size(); ++i) {
      if ((i / stride) & 1) t.words_[i] = ~0ULL;
    }
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_words(int num_vars, const std::uint64_t* words) {
  TruthTable t(num_vars);
  std::copy(words, words + t.words_.size(), t.words_.begin());
  t.mask_tail();
  return t;
}

void TruthTable::mask_tail() {
  if (num_vars_ < 6) {
    words_[0] &= (1ULL << (std::size_t{1} << num_vars_)) - 1;
  }
}

void TruthTable::set_bit(std::size_t i, bool v) {
  if (v) {
    words_[i >> 6] |= 1ULL << (i & 63);
  } else {
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }
}

bool TruthTable::is_const0() const {
  for (auto w : words_) {
    if (w) return false;
  }
  return true;
}

bool TruthTable::is_const1() const { return (~*this).is_const0(); }

int TruthTable::count_ones() const {
  int c = 0;
  for (auto w : words_) c += std::popcount(w);
  return c;
}

bool TruthTable::has_var(int var) const {
  return cofactor0(var) != cofactor1(var);
}

TruthTable TruthTable::operator~() const {
  TruthTable t(*this);
  for (auto& w : t.words_) w = ~w;
  t.mask_tail();
  return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  TruthTable t(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] &= o.words_[i];
  return t;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  TruthTable t(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] |= o.words_[i];
  return t;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  TruthTable t(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] ^= o.words_[i];
  return t;
}

bool TruthTable::operator==(const TruthTable& o) const {
  return num_vars_ == o.num_vars_ && words_ == o.words_;
}

TruthTable TruthTable::cofactor0(int var) const {
  TruthTable t(*this);
  if (var < 6) {
    const int shift = 1 << var;
    for (auto& w : t.words_) {
      w &= ~kVarMasks[var];
      w |= w << shift;
    }
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < t.words_.size(); ++i) {
      if ((i / stride) & 1) t.words_[i] = t.words_[i - stride];
    }
  }
  return t;
}

TruthTable TruthTable::cofactor1(int var) const {
  TruthTable t(*this);
  if (var < 6) {
    const int shift = 1 << var;
    for (auto& w : t.words_) {
      w &= kVarMasks[var];
      w |= w >> shift;
    }
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < t.words_.size(); ++i) {
      if (!((i / stride) & 1)) t.words_[i] = t.words_[i + stride];
    }
  }
  return t;
}

std::string TruthTable::to_binary_string() const {
  std::string s;
  s.reserve(num_bits());
  for (std::size_t i = num_bits(); i-- > 0;) s += get_bit(i) ? '1' : '0';
  return s;
}

std::uint16_t TruthTable::to_u16() const {
  if (num_vars_ > 4) throw std::logic_error("to_u16 requires <=4 vars");
  std::uint64_t w = words_[0];
  // Replicate smaller tables up to 16 bits for canonical comparison.
  for (int v = num_vars_; v < 4; ++v) w |= w << (1 << v);
  return static_cast<std::uint16_t>(w & 0xffff);
}

TruthTable TruthTable::from_u16(std::uint16_t bits, int num_vars) {
  TruthTable t(num_vars);
  t.words_[0] = bits;
  t.mask_tail();
  return t;
}

namespace {

// Recursive Minato-Morreale over an interval of don't cares:
// computes an irredundant cover F with on_min <= F <= on_max.
std::vector<Cube> isop_rec(const TruthTable& on_min, const TruthTable& on_max,
                           int var) {
  if (on_min.is_const0()) return {};
  if (on_max.is_const1()) return {Cube{}};  // single empty cube = const1
  // Find the topmost variable either bound depends on.
  int v = var;
  while (v >= 0 && !on_min.has_var(v) && !on_max.has_var(v)) --v;
  if (v < 0) {
    // Bounds are constants: on_min != 0 was handled, so on_min == const1
    // would have forced on_max == const1. Unreachable, but be safe.
    return {Cube{}};
  }
  const TruthTable min0 = on_min.cofactor0(v);
  const TruthTable min1 = on_min.cofactor1(v);
  const TruthTable max0 = on_max.cofactor0(v);
  const TruthTable max1 = on_max.cofactor1(v);

  // Part of ON-set that must be covered with literal !v / v.
  std::vector<Cube> cover0 = isop_rec(min0 & ~max1, max0, v - 1);
  std::vector<Cube> cover1 = isop_rec(min1 & ~max0, max1, v - 1);

  TruthTable covered0 = eval_sop(cover0, on_min.num_vars());
  TruthTable covered1 = eval_sop(cover1, on_min.num_vars());
  // Remainder must be covered without referencing v.
  const TruthTable rem = (min0 & ~covered0) | (min1 & ~covered1);
  std::vector<Cube> cover_rem = isop_rec(rem, max0 & max1, v - 1);

  for (auto& c : cover0) c.mask |= 1u << v;  // add literal !v (polarity 0)
  for (auto& c : cover1) {
    c.mask |= 1u << v;
    c.polarity |= 1u << v;
  }
  std::vector<Cube> all = std::move(cover0);
  all.insert(all.end(), cover1.begin(), cover1.end());
  all.insert(all.end(), cover_rem.begin(), cover_rem.end());
  return all;
}

}  // namespace

std::vector<Cube> isop(const TruthTable& on) {
  return isop_rec(on, on, on.num_vars() - 1);
}

TruthTable eval_sop(const std::vector<Cube>& cubes, int num_vars) {
  TruthTable result = TruthTable::constant(num_vars, false);
  for (const Cube& c : cubes) {
    TruthTable term = TruthTable::constant(num_vars, true);
    for (int v = 0; v < num_vars; ++v) {
      if (!(c.mask & (1u << v))) continue;
      const TruthTable tv = TruthTable::variable(num_vars, v);
      term = term & ((c.polarity & (1u << v)) ? tv : ~tv);
    }
    result = result | term;
  }
  return result;
}

int sop_literals(const std::vector<Cube>& cubes) {
  int n = 0;
  for (const Cube& c : cubes) n += c.num_literals();
  return n;
}

}  // namespace clo::aig
