#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "clo/aig/simulate.hpp"
#include "clo/circuits/generators.hpp"
#include "clo/opt/transform.hpp"
#include "clo/techmap/tech_map.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;
using aig::Aig;
using aig::Lit;

const techmap::CellLibrary& lib() {
  static const techmap::CellLibrary kLib = techmap::CellLibrary::asap7();
  return kLib;
}

/// Instances of the cell named `name` in the cover.
int cells_named(const techmap::MappingResult& r, const std::string& name) {
  int count = 0;
  for (const auto& inst : r.instances) {
    if (lib().cell(inst.cell_index).name == name) ++count;
  }
  return count;
}

/// Evaluates the recorded cover on one 64-pattern word per PI and returns
/// one word per PO. A net's value comes from a constant, a positive PI or
/// the instance that drives it; instances run once all their inputs are
/// known, so a net nothing drives (or a cycle) fails the test.
std::vector<std::uint64_t> simulate_cover(
    const techmap::MappingResult& r, const Aig& g,
    const std::vector<std::uint64_t>& pi_words) {
  std::vector<std::uint64_t> value(2 * g.num_slots(), 0);
  std::vector<bool> known(2 * g.num_slots(), false);
  value[aig::kLitTrue] = ~std::uint64_t{0};
  known[0] = known[aig::kLitTrue] = true;
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    value[g.pi(i)] = pi_words[i];
    known[g.pi(i)] = true;
  }
  std::vector<bool> done(r.instances.size(), false);
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t k = 0; k < r.instances.size(); ++k) {
      const auto& inst = r.instances[k];
      const auto& cell = lib().cell(inst.cell_index);
      bool ready = !done[k];
      for (int p = 0; p < cell.num_inputs; ++p) {
        ready = ready && known[inst.inputs[p]];
      }
      if (!ready) continue;
      std::uint64_t y = 0;
      for (int m = 0; m < (1 << cell.num_inputs); ++m) {
        if (!((cell.function >> m) & 1)) continue;
        std::uint64_t term = ~std::uint64_t{0};
        for (int p = 0; p < cell.num_inputs; ++p) {
          const std::uint64_t in = value[inst.inputs[p]];
          term &= ((m >> p) & 1) ? in : ~in;
        }
        y |= term;
      }
      EXPECT_FALSE(known[inst.output])
          << "net " << inst.output << " driven twice";
      value[inst.output] = y;
      known[inst.output] = true;
      done[k] = true;
      progress = true;
    }
  }
  for (std::size_t k = 0; k < r.instances.size(); ++k) {
    EXPECT_TRUE(done[k]) << "instance " << k << " has an undriven input";
  }
  std::vector<std::uint64_t> po_words;
  for (const Lit driver : r.po_drivers) {
    EXPECT_TRUE(known[driver]) << "PO driver " << driver << " undriven";
    po_words.push_back(value[driver]);
  }
  return po_words;
}

/// The graph of TechMap.ConstantAndWireOutputs: a constant and a PI as POs.
Aig constant_and_wire_outputs() {
  Aig g;
  const Lit a = g.add_pi();
  g.add_po(aig::kLitTrue);
  g.add_po(a);
  return g;
}

TEST(CellLibrary, HasCoreCells) {
  for (const char* name :
       {"INVx1", "NAND2x1", "NOR2x1", "XOR2x1", "AOI21x1", "MUX21x1"}) {
    EXPECT_GE(lib().find(name), 0) << name;
  }
  EXPECT_EQ(lib().find("FAKECELL"), -1);
  EXPECT_EQ(lib().cell(lib().inverter_index()).name, "INVx1");
}

TEST(CellLibrary, CellFunctionsCorrect) {
  const auto& nand2 = lib().cell(lib().find("NAND2x1"));
  EXPECT_EQ(nand2.function, 0x7);  // !(ab)
  const auto& xor2 = lib().cell(lib().find("XOR2x1"));
  EXPECT_EQ(xor2.function, 0x6);
  const auto& aoi21 = lib().cell(lib().find("AOI21x1"));
  // !(ab + c): minterms where output is 1: c=0 and !(ab).
  EXPECT_EQ(aoi21.function, 0x07);
}

TEST(CellLibrary, MatchFindsPermutedAndPhasedFunctions) {
  // f = a & !b has no direct cell but matches AND2/NOR2 with a phase.
  const auto& all = lib().matches(0x2, 2);  // minterm a=1,b=0
  ASSERT_FALSE(all.empty());
  // Every match must reproduce the function through its cell.
  for (const auto& m : all) {
    ASSERT_GE(m.cell_index, 0);
    const auto& cell = lib().cell(m.cell_index);
    for (int minterm = 0; minterm < 4; ++minterm) {
      int cell_minterm = 0;
      for (int i = 0; i < 2; ++i) {
        const bool x = ((minterm >> i) & 1) != 0;
        if (x != m.input_phase[i]) cell_minterm |= 1 << m.pin_of_input[i];
      }
      const bool expected = (0x2 >> minterm) & 1;
      EXPECT_EQ(static_cast<bool>((cell.function >> cell_minterm) & 1),
                expected)
          << cell.name;
    }
  }
}

TEST(CellLibrary, MatchAllTwoVarFunctions) {
  for (int bits = 1; bits < 15; ++bits) {  // skip constants
    if (bits == 0b1010 || bits == 0b0101 || bits == 0b1100 || bits == 0b0011) {
      continue;  // single-variable functions are handled as wires
    }
    EXPECT_FALSE(lib().matches(static_cast<std::uint16_t>(bits), 2).empty())
        << "f=" << bits;
  }
}

TEST(TechMap, C17MatchesPaperCalibration) {
  // c17 is 6 NAND2 in 3 levels in the classic netlist; the library's NAND2
  // is calibrated so that cover costs 3.73 um^2 / 18.52 ps like the
  // paper's Table II row. Our delay-oriented mapper may legally trade a
  // little area for equal-or-better delay using complex cells, so assert
  // a band around the calibration point rather than the exact cover.
  const Aig g = circuits::make_benchmark("c17");
  const auto r = techmap::tech_map(g, lib());
  EXPECT_GE(r.area_um2, 3.7);
  EXPECT_LE(r.area_um2, 4.8);
  EXPECT_LE(r.delay_ps, 3 * 6.1733 + 1e-6);  // never slower than 6x NAND2
  EXPECT_GE(r.delay_ps, 15.0);
  EXPECT_GE(cells_named(r, "NAND2x1"), 3);
  // An area-oriented mapping recovers (close to) the classic NAND cover.
  techmap::MapParams area_p;
  area_p.objective = techmap::MapParams::Objective::kArea;
  const auto ra = techmap::tech_map(g, lib(), area_p);
  EXPECT_NEAR(ra.area_um2, 6 * 0.6216, 0.7);
}

TEST(TechMap, SingleGateCircuits) {
  {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    g.add_po(g.and_of(a, b));
    const auto r = techmap::tech_map(g, lib());
    EXPECT_EQ(r.num_cells, 1);
  }
  {
    Aig g;
    const Lit a = g.add_pi();
    g.add_po(aig::lit_not(a));
    const auto r = techmap::tech_map(g, lib());
    EXPECT_EQ(r.num_cells, 1);
    EXPECT_EQ(cells_named(r, "INVx1"), 1);
  }
}

TEST(TechMap, XorUsesXorCell) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  g.add_po(g.xor_of(a, b));
  const auto r = techmap::tech_map(g, lib());
  // 3 AND nodes should collapse into one XOR2 cell.
  EXPECT_EQ(r.num_cells, 1);
  EXPECT_EQ(cells_named(r, "XOR2x1"), 1);
}

TEST(TechMap, MuxAndMajUseDedicatedCells) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit s = g.add_pi();
  g.add_po(g.mux_of(s, a, b));
  g.add_po(g.maj_of(a, b, s));
  const auto r = techmap::tech_map(g, lib());
  EXPECT_GE(cells_named(r, "MUX21x1"), 1);
  EXPECT_GE(cells_named(r, "MAJ3x1"), 1);
}

TEST(TechMap, ConstantAndWireOutputs) {
  const Aig g = constant_and_wire_outputs();
  const auto r = techmap::tech_map(g, lib());
  EXPECT_EQ(r.num_cells, 0);
  EXPECT_DOUBLE_EQ(r.delay_ps, 0.0);
}

TEST(TechMap, SharedLogicCountedOnce) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit shared = g.and_of(a, b);
  g.add_po(g.and_of(shared, c));
  g.add_po(g.and_of(shared, aig::lit_not(c)));
  const auto r = techmap::tech_map(g, lib());
  // The shared AND must not be duplicated arbitrarily: at most 4 cells.
  EXPECT_LE(r.num_cells, 4);
}

TEST(TechMap, DelayObjectiveNoWorseThanAreaObjective) {
  const Aig g = circuits::make_benchmark("c880");
  techmap::MapParams delay_p;
  delay_p.objective = techmap::MapParams::Objective::kDelay;
  techmap::MapParams area_p;
  area_p.objective = techmap::MapParams::Objective::kArea;
  const auto rd = techmap::tech_map(g, lib(), delay_p);
  const auto ra = techmap::tech_map(g, lib(), area_p);
  EXPECT_LE(rd.delay_ps, ra.delay_ps + 1e-9);
  EXPECT_LE(ra.area_um2, rd.area_um2 + 1e-9);
}

TEST(TechMap, AreaScalesWithCircuitSize) {
  const auto small = techmap::tech_map(circuits::make_benchmark("ctrl"), lib());
  const auto large = techmap::tech_map(circuits::make_benchmark("div"), lib());
  EXPECT_GT(large.area_um2, small.area_um2 * 2);
}

TEST(TechMap, EveryBenchmarkMapsCompletely) {
  for (const auto& info : circuits::benchmark_catalog()) {
    const Aig g = circuits::make_benchmark(info.name);
    const auto r = techmap::tech_map(g, lib());
    EXPECT_GT(r.area_um2, 0.0) << info.name;
    EXPECT_GT(r.delay_ps, 0.0) << info.name;
    EXPECT_GT(r.num_cells, 0) << info.name;
  }
}

TEST(TechMap, OptimizedCircuitMapsSmaller) {
  Aig g = circuits::make_benchmark("sqrt");
  const auto before = techmap::tech_map(g, lib());
  clo::opt::run_sequence(
      g, clo::opt::parse_sequence("b;rw;rf;b;rw;rwz;b;rfz;rwz;b"));
  const auto after = techmap::tech_map(g, lib());
  EXPECT_LT(after.area_um2, before.area_um2);
}

TEST(Netlist, InstancesRecordedWhenRequested) {
  const Aig g = circuits::make_benchmark("c17");
  const auto r = techmap::tech_map(g, lib());
  EXPECT_EQ(static_cast<int>(r.instances.size()), r.num_cells);
  EXPECT_EQ(r.po_drivers.size(), g.num_pos());
  double area = 0.0;
  for (const auto& inst : r.instances) {
    ASSERT_GE(inst.cell_index, 0);
    area += lib().cell(inst.cell_index).area_um2;
    EXPECT_LT(aig::lit_node(inst.output), g.num_slots());
    EXPECT_NE(aig::lit_node(inst.output), 0u);
  }
  EXPECT_NEAR(area, r.area_um2, 1e-9);
}

TEST(Netlist, VerilogSimulatesCorrectly) {
  // The recorded cover, evaluated cell by cell, computes every PO of the
  // graph it maps, under both objectives.
  std::vector<std::pair<std::string, Aig>> graphs;
  for (const char* name : {"c17", "int2float", "c432", "router"}) {
    graphs.emplace_back(name, circuits::make_benchmark(name));
  }
  graphs.emplace_back("constant_and_wire", constant_and_wire_outputs());
  clo::Rng rng(17);
  for (const auto& [name, g] : graphs) {
    for (const auto objective : {techmap::MapParams::Objective::kDelay,
                                 techmap::MapParams::Objective::kArea}) {
      const auto r = techmap::tech_map(g, lib(), {objective});
      ASSERT_EQ(r.po_drivers.size(), g.num_pos()) << name;
      for (int round = 0; round < 8; ++round) {
        std::vector<std::uint64_t> pi_words(g.num_pis());
        for (auto& w : pi_words) w = rng.next_u64();
        EXPECT_EQ(simulate_cover(r, g, pi_words),
                  aig::simulate_words(g, pi_words))
            << name << " objective "
            << (objective == techmap::MapParams::Objective::kArea ? "area"
                                                                   : "delay");
      }
    }
  }
  // The Verilog text names the module and assigns every PO.
  const Aig g = circuits::make_benchmark("int2float");
  std::ostringstream os;
  techmap::write_verilog(techmap::tech_map(g, lib()), lib(), g, os);
  const std::string v = os.str();
  EXPECT_NE(v.find("module int2float("), std::string::npos);
  EXPECT_NE(v.find("assign"), std::string::npos);
}

}  // namespace
