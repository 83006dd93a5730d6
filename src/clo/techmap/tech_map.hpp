#pragma once
// Cut-based standard-cell technology mapping with static timing analysis.
// This is the QoR oracle of the project: after a synthesis sequence is
// applied to the AIG, `tech_map` produces the mapped area (um^2) and
// critical-path delay (ps) that the optimizers minimize — the same role
// ABC's `map` + ASAP7 plays in the paper.

#include <array>
#include <iosfwd>
#include <vector>

#include "clo/aig/aig.hpp"
#include "clo/techmap/cell_library.hpp"

namespace clo::techmap {

struct MapParams {
  /// Primary objective: kDelay picks min-arrival matches (area-flow
  /// tie-break), kArea picks min-area-flow matches (arrival tie-break).
  enum class Objective { kDelay, kArea };
  Objective objective = Objective::kDelay;
};

/// One placed cell of the cover. A net is a (node, polarity) pair, kept
/// as an aig::Lit: node 0 is the constant, a PI node is the input itself.
struct CellInstance {
  int cell_index = -1;
  aig::Lit output = 0;
  /// The net on each cell pin; the first num_inputs entries are used.
  std::array<aig::Lit, kMaxCellInputs> inputs{};
};

struct MappingResult {
  double area_um2 = 0.0;
  double delay_ps = 0.0;
  int num_cells = 0;  ///< instances.size()
  /// The cover, in extraction order.
  std::vector<CellInstance> instances;
  /// The net driving each PO, in PO order.
  std::vector<aig::Lit> po_drivers;
};

/// Map `g` onto `lib`. The graph is not modified.
MappingResult tech_map(const aig::Aig& g, const CellLibrary& lib,
                       const MapParams& params = {});

/// Emit the mapped netlist as structural Verilog, including `module`
/// definitions (assign-based) for every used cell. Nets are named after
/// the graph: PIs by name, internal nodes n<id>, complements with `_bar`.
void write_verilog(const MappingResult& result, const CellLibrary& lib,
                   const aig::Aig& g, std::ostream& os);

}  // namespace clo::techmap
