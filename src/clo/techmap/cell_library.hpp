#pragma once
// Standard-cell library model for technology mapping. The built-in library
// is a 7-nm-class set (INV/NAND/NOR/AOI/OAI/XOR/MUX/MAJ) with areas in
// square microns and pin-to-pin delays in picoseconds scaled to ASAP7 RVT
// magnitudes (the PDK the paper maps with). The matcher supports input
// permutation; input/output negation is realized through polarity-aware
// mapping with explicit inverters.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace clo::techmap {

/// Most pins of a library cell (a cut has at most this many leaves).
inline constexpr int kMaxCellInputs = 4;

struct Cell {
  std::string name;
  int num_inputs = 0;
  /// Truth table bits over num_inputs variables (bit i = value on
  /// minterm i, input 0 = LSB of the minterm index).
  std::uint16_t function = 0;
  double area_um2 = 0.0;
  double delay_ps = 0.0;  ///< worst pin-to-pin delay
};

/// A pattern match: which cell implements a cut function and how the cut
/// leaves connect to its pins.
struct CellMatch {
  int cell_index = -1;
  /// pin_of_input[i] = the cell pin that cut input i drives.
  std::array<int, kMaxCellInputs> pin_of_input{};
  /// input_phase[i] = true if cut input i must be complemented.
  std::array<bool, kMaxCellInputs> input_phase{};
};

class CellLibrary {
 public:
  /// The built-in ASAP7-flavored library.
  static CellLibrary asap7();

  const std::vector<Cell>& cells() const { return cells_; }
  const Cell& cell(int index) const { return cells_[index]; }
  int inverter_index() const { return inverter_index_; }
  const Cell& inverter() const { return cells_[inverter_index_]; }

  /// All matches for `function` over `num_vars` support variables — at
  /// most one (cheapest-phase) match per cell. Empty if unmatchable.
  const std::vector<CellMatch>& matches(std::uint16_t function,
                                        int num_vars) const;

  /// Cell index by name (-1 if absent).
  int find(const std::string& name) const;

 private:
  void add_cell(Cell cell);
  void build_match_table();

  std::vector<Cell> cells_;
  int inverter_index_ = -1;
  /// (num_vars, function) -> one match per matching cell.
  std::map<std::pair<int, std::uint16_t>, std::vector<CellMatch>> match_table_;
};

}  // namespace clo::techmap
