#pragma once
// Cut-based standard-cell technology mapping with static timing analysis.
// This is the QoR oracle of the project: after a synthesis sequence is
// applied to the AIG, `tech_map` produces the mapped area (um^2) and
// critical-path delay (ps) that the optimizers minimize — the same role
// ABC's `map` + ASAP7 plays in the paper.

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "clo/aig/aig.hpp"
#include "clo/techmap/cell_library.hpp"

namespace clo::techmap {

struct MapParams {
  /// Primary objective: kDelay picks min-arrival matches (area-flow
  /// tie-break), kArea picks min-area-flow matches (arrival tie-break).
  enum class Objective { kDelay, kArea };
  Objective objective = Objective::kDelay;
  /// Record the full instance list (needed for write_verilog).
  bool keep_netlist = false;
};

/// One placed cell in the mapped netlist.
struct CellInstance {
  int cell_index = -1;
  std::string output_net;
  std::vector<std::string> input_nets;  ///< in cell pin order
};

struct MappingResult {
  double area_um2 = 0.0;
  double delay_ps = 0.0;
  int num_cells = 0;
  std::map<std::string, int> cell_histogram;
  /// Full netlist (filled when MapParams::keep_netlist).
  std::vector<CellInstance> instances;
  /// Net driving each PO, in PO order (when keep_netlist).
  std::vector<std::string> po_nets;
};

/// Map `g` onto `lib`. The graph is not modified.
MappingResult tech_map(const aig::Aig& g, const CellLibrary& lib,
                       const MapParams& params = {});

/// Emit the mapped netlist as structural Verilog, including `module`
/// definitions (assign-based) for every used cell. Requires a result
/// produced with keep_netlist = true.
void write_verilog(const MappingResult& result, const CellLibrary& lib,
                   const aig::Aig& g, std::ostream& os);

}  // namespace clo::techmap
