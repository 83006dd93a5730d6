#include "clo/techmap/cell_library.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>

namespace clo::techmap {
namespace {

/// Build a truth table from a boolean lambda over the input bits.
template <typename F>
std::uint16_t tt_of(int num_inputs, F f) {
  std::uint16_t bits = 0;
  for (int m = 0; m < (1 << num_inputs); ++m) {
    std::array<bool, 4> in{};
    for (int i = 0; i < num_inputs; ++i) in[i] = (m >> i) & 1;
    if (f(in)) bits |= static_cast<std::uint16_t>(1u << m);
  }
  return bits;
}

/// Apply an input permutation + phase assignment to a function:
/// result(x) = f(y) with y[pin_of_input[i]] = x[i] ^ phase[i].
std::uint16_t permute_function(
    std::uint16_t f, int num_inputs,
    const std::array<int, kMaxCellInputs>& pin_of_input,
    const std::array<bool, kMaxCellInputs>& phase) {
  std::uint16_t result = 0;
  for (int m = 0; m < (1 << num_inputs); ++m) {
    int cell_minterm = 0;
    for (int i = 0; i < num_inputs; ++i) {
      const bool x = ((m >> i) & 1) != 0;
      if (x != phase[i]) cell_minterm |= 1 << pin_of_input[i];
    }
    if ((f >> cell_minterm) & 1) result |= static_cast<std::uint16_t>(1u << m);
  }
  return result;
}

}  // namespace

void CellLibrary::add_cell(Cell cell) {
  if (cell.name == "INVx1") inverter_index_ = static_cast<int>(cells_.size());
  cells_.push_back(std::move(cell));
}

CellLibrary CellLibrary::asap7() {
  CellLibrary lib;
  using In = std::array<bool, 4>;
  auto add = [&](const std::string& name, int k, auto fn, double area,
                 double delay) {
    lib.add_cell(Cell{name, k, tt_of(k, fn), area, delay});
  };
  // Areas in um^2 / delays in ps, scaled so the classic c17 netlist
  // (6 NAND2, 3 levels) maps to 3.73 um^2 and 18.52 ps like the paper.
  add("INVx1", 1, [](In a) { return !a[0]; }, 0.4665, 4.16);
  add("BUFx2", 1, [](In a) { return a[0]; }, 0.6216, 7.52);
  add("NAND2x1", 2, [](In a) { return !(a[0] && a[1]); }, 0.6216, 6.1733);
  add("NOR2x1", 2, [](In a) { return !(a[0] || a[1]); }, 0.6216, 7.08);
  add("AND2x2", 2, [](In a) { return a[0] && a[1]; }, 0.8289, 9.31);
  add("OR2x2", 2, [](In a) { return a[0] || a[1]; }, 0.8289, 10.14);
  add("NAND3x1", 3, [](In a) { return !(a[0] && a[1] && a[2]); }, 0.8289,
      8.84);
  add("NOR3x1", 3, [](In a) { return !(a[0] || a[1] || a[2]); }, 0.8289,
      10.51);
  add("NAND4x1", 4, [](In a) { return !(a[0] && a[1] && a[2] && a[3]); },
      1.0362, 11.32);
  add("NOR4x1", 4, [](In a) { return !(a[0] || a[1] || a[2] || a[3]); },
      1.0362, 13.61);
  add("AND3x2", 3, [](In a) { return a[0] && a[1] && a[2]; }, 1.0362, 11.02);
  add("OR3x2", 3, [](In a) { return a[0] || a[1] || a[2]; }, 1.0362, 12.33);
  add("AOI21x1", 3, [](In a) { return !((a[0] && a[1]) || a[2]); }, 0.8289,
      9.43);
  add("OAI21x1", 3, [](In a) { return !((a[0] || a[1]) && a[2]); }, 0.8289,
      9.61);
  add("AOI22x1", 4,
      [](In a) { return !((a[0] && a[1]) || (a[2] && a[3])); }, 1.0362,
      11.18);
  add("OAI22x1", 4,
      [](In a) { return !((a[0] || a[1]) && (a[2] || a[3])); }, 1.0362,
      11.47);
  add("XOR2x1", 2, [](In a) { return a[0] != a[1]; }, 1.2432, 12.41);
  add("XNOR2x1", 2, [](In a) { return a[0] == a[1]; }, 1.2432, 12.83);
  add("MUX21x1", 3, [](In a) { return a[2] ? a[1] : a[0]; }, 1.4508, 13.06);
  add("MAJ3x1", 3,
      [](In a) {
        return (a[0] && a[1]) || (a[0] && a[2]) || (a[1] && a[2]);
      },
      1.4508, 13.92);
  lib.build_match_table();
  return lib;
}

void CellLibrary::build_match_table() {
  for (int ci = 0; ci < static_cast<int>(cells_.size()); ++ci) {
    const Cell& cell = cells_[ci];
    const int k = cell.num_inputs;
    std::array<int, kMaxCellInputs> perm{};
    std::iota(perm.begin(), perm.begin() + k, 0);
    do {
      for (int phase_bits = 0; phase_bits < (1 << k); ++phase_bits) {
        std::array<bool, kMaxCellInputs> phase{};
        for (int i = 0; i < k; ++i) phase[i] = (phase_bits >> i) & 1;
        const std::uint16_t f =
            permute_function(cell.function, k, perm, phase);
        auto& bucket = match_table_[std::make_pair(k, f)];
        // Keep one match per cell: the one with the fewest phased inputs
        // (each phase is a potential extra inverter downstream).
        const int new_phases = __builtin_popcount(phase_bits);
        auto existing = std::find_if(
            bucket.begin(), bucket.end(),
            [&](const CellMatch& m) { return m.cell_index == ci; });
        auto phases_of = [](const CellMatch& m) {
          int n = 0;
          for (bool p : m.input_phase) n += p ? 1 : 0;
          return n;
        };
        if (existing == bucket.end() || new_phases < phases_of(*existing)) {
          CellMatch m;
          m.cell_index = ci;
          m.pin_of_input = perm;
          m.input_phase = phase;
          if (existing == bucket.end()) {
            bucket.push_back(std::move(m));
          } else {
            *existing = std::move(m);
          }
        }
      }
    } while (std::next_permutation(perm.begin(), perm.begin() + k));
  }
}

const std::vector<CellMatch>& CellLibrary::matches(std::uint16_t function,
                                                   int num_vars) const {
  static const std::vector<CellMatch> kEmpty;
  auto it = match_table_.find(std::make_pair(num_vars, function));
  return it == match_table_.end() ? kEmpty : it->second;
}

int CellLibrary::find(const std::string& name) const {
  for (int i = 0; i < static_cast<int>(cells_.size()); ++i) {
    if (cells_[i].name == name) return i;
  }
  return -1;
}

}  // namespace clo::techmap
