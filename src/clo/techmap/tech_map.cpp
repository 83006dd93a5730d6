#include "clo/techmap/tech_map.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <functional>
#include <limits>
#include <ostream>
#include <set>
#include <stdexcept>
#include <vector>

#include "clo/aig/cuts.hpp"
#include "clo/aig/truth.hpp"
#include "clo/aig/window.hpp"

namespace clo::techmap {

using aig::Aig;
using aig::Cut;
using aig::Lit;
using aig::TruthTable;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Priority cuts kept per node (4-leaf cuts, aig::kCutLeaves).
constexpr int kMaxCutsPerNode = 12;

struct Choice {
  int cell_index = -1;               ///< -1 = unresolved, -2 = wire
  bool via_inverter = false;         ///< implemented as INV(other polarity)
  std::vector<std::uint32_t> leaves; ///< cut leaves in match input order
  std::vector<bool> leaf_phase;      ///< polarity required of each leaf
  std::vector<int> pin_of_input;     ///< cell pin driven by each leaf
};

struct NodeCost {
  double arrival[2] = {kInf, kInf};
  double aflow[2] = {kInf, kInf};
  Choice choice[2];
};

/// Reduce `tt` to its support variables; fills `support` with the indices
/// of participating variables and returns the packed bits of the reduced
/// function (over support.size() <= aig::kCutLeaves <= 4 variables).
std::uint16_t reduce_support(const TruthTable& tt, std::vector<int>& support) {
  support.clear();
  for (int v = 0; v < tt.num_vars(); ++v) {
    if (tt.has_var(v)) support.push_back(v);
  }
  const int m = static_cast<int>(support.size());
  std::uint16_t bits = 0;
  for (int minterm = 0; minterm < (1 << m); ++minterm) {
    std::size_t full = 0;
    for (int i = 0; i < m; ++i) {
      if ((minterm >> i) & 1) full |= std::size_t{1} << support[i];
    }
    if (tt.get_bit(full)) bits |= static_cast<std::uint16_t>(1u << minterm);
  }
  return bits;
}

}  // namespace

MappingResult tech_map(const Aig& g, const CellLibrary& lib,
                       const MapParams& params) {
  const bool delay_oriented = params.objective == MapParams::Objective::kDelay;
  aig::CutSet cuts(g, kMaxCutsPerNode);
  aig::Window window;

  std::vector<NodeCost> cost(g.num_slots());
  const Cell& inv = lib.inverter();

  // Area-flow reference estimate: structural fanout count in round 0;
  // after a provisional cover exists, the *actual* number of cover
  // references (classic iterative area recovery — fixes the area-flow
  // double-counting that can make a greedy "area" cover larger than the
  // delay cover).
  std::vector<int> cover_refs;
  auto refs_of = [&](std::uint32_t n) {
    if (!cover_refs.empty()) return std::max(1, cover_refs[n]);
    return std::max(1, g.nrefs(n));
  };

  const auto order = g.topo_order();
  auto run_selection = [&] {
  cost.assign(g.num_slots(), NodeCost{});
  // Constant node: free, arrival 0 (tie cells are ignored, like ABC).
  cost[0].arrival[0] = cost[0].arrival[1] = 0.0;
  cost[0].aflow[0] = cost[0].aflow[1] = 0.0;
  // PIs: positive free; negative via inverter.
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    NodeCost& c = cost[g.pi_node(i)];
    c.arrival[0] = 0.0;
    c.aflow[0] = 0.0;
    c.arrival[1] = inv.delay_ps;
    c.aflow[1] = inv.area_um2;
    c.choice[1].via_inverter = true;
  }
  for (std::uint32_t n : order) {
    NodeCost& c = cost[n];
    for (const Cut& cut : cuts.cuts_of(n)) {
      if (cut.leaves.size() == 1 && cut.leaves[0] == n) continue;  // trivial
      // A cut's cone never leaves the cut in a well-formed graph.
      if (!window.simulate(g, n, cut.leaves, std::numeric_limits<int>::max())) {
        throw std::logic_error("tech_map: cut cone escapes its leaves");
      }
      const TruthTable tt = window.truth(aig::make_lit(n));
      std::vector<int> support;
      const std::uint16_t bits = reduce_support(tt, support);
      const int m = static_cast<int>(support.size());
      if (m == 0) continue;  // semantically constant cone: skip this cut
      const std::uint16_t mask =
          static_cast<std::uint16_t>((1u << (1 << m)) - 1);
      for (int pol = 0; pol < 2; ++pol) {
        const std::uint16_t f = pol ? static_cast<std::uint16_t>(~bits & mask)
                                    : bits;
        // Single-support wire: the function is a leaf or its complement.
        if (m == 1) {
          const std::uint32_t leaf = cut.leaves[support[0]];
          const bool phase = (f == 0x1);  // f == !x
          const double arr = cost[leaf].arrival[phase];
          const double af = cost[leaf].aflow[phase];
          const bool better = delay_oriented
                                  ? (arr < c.arrival[pol] ||
                                     (arr == c.arrival[pol] && af < c.aflow[pol]))
                                  : (af < c.aflow[pol] ||
                                     (af == c.aflow[pol] && arr < c.arrival[pol]));
          if (better) {
            c.arrival[pol] = arr;
            c.aflow[pol] = af;
            c.choice[pol] = Choice{-2, false, {leaf}, {phase}, {}};  // wire
          }
          continue;
        }
        for (const CellMatch& match : lib.matches(f, m)) {
          const Cell& cell = lib.cell(match.cell_index);
          double arr = 0.0;
          double af = cell.area_um2;
          std::vector<std::uint32_t> leaves(m);
          std::vector<bool> phases(m);
          bool feasible = true;
          for (int i = 0; i < m; ++i) {
            const std::uint32_t leaf = cut.leaves[support[i]];
            const bool phase = match.input_phase[i];
            if (cost[leaf].arrival[phase] == kInf) {
              feasible = false;
              break;
            }
            arr = std::max(arr, cost[leaf].arrival[phase]);
            af += cost[leaf].aflow[phase] / refs_of(leaf);
            leaves[i] = leaf;
            phases[i] = phase;
          }
          if (!feasible) continue;
          arr += cell.delay_ps;
          const bool better =
              delay_oriented
                  ? (arr < c.arrival[pol] ||
                     (arr == c.arrival[pol] && af < c.aflow[pol]))
                  : (af < c.aflow[pol] ||
                     (af == c.aflow[pol] && arr < c.arrival[pol]));
          if (better) {
            c.arrival[pol] = arr;
            c.aflow[pol] = af;
            c.choice[pol] = Choice{match.cell_index, false, std::move(leaves),
                                   std::move(phases), match.pin_of_input};
          }
        }
      }
    }
    // Inverter relaxation between the two polarities.
    for (int round = 0; round < 2; ++round) {
      for (int pol = 0; pol < 2; ++pol) {
        const int other = 1 - pol;
        if (c.arrival[other] == kInf) continue;
        const double arr = c.arrival[other] + inv.delay_ps;
        const double af = c.aflow[other] + inv.area_um2;
        const bool better = delay_oriented
                                ? (arr < c.arrival[pol] ||
                                   (arr == c.arrival[pol] && af < c.aflow[pol]))
                                : (af < c.aflow[pol] ||
                                   (af == c.aflow[pol] && arr < c.arrival[pol]));
        if (better) {
          c.arrival[pol] = arr;
          c.aflow[pol] = af;
          Choice ch;
          ch.via_inverter = true;
          c.choice[pol] = ch;
        }
      }
    }
  }
  };  // run_selection

  run_selection();
  if (!delay_oriented) {
    // Iterative area recovery: count how often each node is actually
    // referenced by the provisional cover, then reselect with true refs.
    for (int round = 0; round < 2; ++round) {
      cover_refs.assign(g.num_slots(), 0);
      std::vector<std::array<bool, 2>> seen(g.num_slots(), {false, false});
      std::vector<std::pair<std::uint32_t, int>> work;
      auto touch = [&](std::uint32_t n, int pol) {
        ++cover_refs[n];
        if (!seen[n][pol]) {
          seen[n][pol] = true;
          work.emplace_back(n, pol);
        }
      };
      for (std::size_t i = 0; i < g.num_pos(); ++i) {
        touch(aig::lit_node(g.po(i)), aig::lit_is_compl(g.po(i)) ? 1 : 0);
      }
      while (!work.empty()) {
        const auto [n, pol] = work.back();
        work.pop_back();
        if (n == 0 || g.is_pi(n)) continue;
        const Choice& ch = cost[n].choice[pol];
        if (ch.via_inverter) {
          touch(n, 1 - pol);
        } else if (ch.cell_index == -2) {
          touch(ch.leaves[0], ch.leaf_phase[0] ? 1 : 0);
        } else if (ch.cell_index >= 0) {
          for (std::size_t i = 0; i < ch.leaves.size(); ++i) {
            touch(ch.leaves[i], ch.leaf_phase[i] ? 1 : 0);
          }
        }
      }
      run_selection();
    }
  }

  // ---- Cover extraction ---------------------------------------------------
  MappingResult result;

  // Net naming, with alias resolution for "wire" choices (a node whose cut
  // function degenerates to one leaf or its complement).
  std::vector<std::string> pi_net(g.num_slots());
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    std::string s = g.pi_name(i);
    for (char& ch : s) {
      if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_') ch = '_';
    }
    if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0]))) {
      s = "s" + s;  // keep in sync with sanitize() below
    }
    pi_net[g.pi_node(i)] = s;
  }
  std::map<std::pair<std::uint32_t, int>, std::pair<std::uint32_t, int>> alias;
  std::function<std::string(std::uint32_t, int)> net_of =
      [&](std::uint32_t n, int pol) -> std::string {
    auto it = alias.find({n, pol});
    if (it != alias.end()) return net_of(it->second.first, it->second.second);
    if (n == 0) return pol ? "const1" : "const0";
    if (g.is_pi(n)) return pol ? pi_net[n] + "_bar" : pi_net[n];
    return pol ? "n" + std::to_string(n) + "_bar" : "n" + std::to_string(n);
  };

  std::vector<std::array<bool, 2>> required(g.num_slots(), {false, false});
  std::vector<std::pair<std::uint32_t, int>> stack;
  auto require = [&](std::uint32_t n, int pol) {
    if (required[n][pol]) return;
    required[n][pol] = true;
    stack.emplace_back(n, pol);
  };
  // Pre-resolve wire aliases so instance inputs name the real driver.
  for (std::uint32_t n : order) {
    for (int pol = 0; pol < 2; ++pol) {
      const Choice& ch = cost[n].choice[pol];
      if (ch.cell_index == -2 && !ch.via_inverter) {
        alias[{n, pol}] = {ch.leaves[0], ch.leaf_phase[0] ? 1 : 0};
      }
    }
  }
  for (std::size_t i = 0; i < g.num_pos(); ++i) {
    const Lit po = g.po(i);
    require(aig::lit_node(po), aig::lit_is_compl(po) ? 1 : 0);
    const double arr =
        cost[aig::lit_node(po)].arrival[aig::lit_is_compl(po) ? 1 : 0];
    if (arr != kInf) result.delay_ps = std::max(result.delay_ps, arr);
    if (params.keep_netlist) {
      result.po_nets.push_back(
          net_of(aig::lit_node(po), aig::lit_is_compl(po) ? 1 : 0));
    }
  }
  auto add_instance = [&](const Cell& cell, int cell_index,
                          std::string output_net,
                          std::vector<std::string> input_nets) {
    result.area_um2 += cell.area_um2;
    result.num_cells += 1;
    result.cell_histogram[cell.name] += 1;
    if (params.keep_netlist) {
      result.instances.push_back(CellInstance{
          cell_index, std::move(output_net), std::move(input_nets)});
    }
  };
  while (!stack.empty()) {
    const auto [n, pol] = stack.back();
    stack.pop_back();
    if (n == 0) continue;  // constant: tied off, no cell
    if (g.is_pi(n)) {
      if (pol == 1) {
        add_instance(inv, lib.inverter_index(), net_of(n, 1), {net_of(n, 0)});
      }
      continue;
    }
    const Choice& ch = cost[n].choice[pol];
    if (ch.via_inverter) {
      add_instance(inv, lib.inverter_index(), net_of(n, pol),
                   {net_of(n, 1 - pol)});
      require(n, 1 - pol);
      continue;
    }
    if (ch.cell_index == -2) {  // wire through support reduction
      require(ch.leaves[0], ch.leaf_phase[0] ? 1 : 0);
      continue;
    }
    if (ch.cell_index < 0) continue;  // unmapped (should not happen)
    const Cell& cell = lib.cell(ch.cell_index);
    std::vector<std::string> input_nets(cell.num_inputs);
    for (std::size_t i = 0; i < ch.leaves.size(); ++i) {
      input_nets[ch.pin_of_input[i]] =
          net_of(ch.leaves[i], ch.leaf_phase[i] ? 1 : 0);
      require(ch.leaves[i], ch.leaf_phase[i] ? 1 : 0);
    }
    add_instance(cell, ch.cell_index, net_of(n, pol), std::move(input_nets));
  }
  return result;
}

namespace {

std::string sanitize(const std::string& name) {
  std::string s = name;
  for (char& ch : s) {
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_') ch = '_';
  }
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0]))) {
    s = "s" + s;
  }
  return s;
}

/// Behavioral expression of a cell function over pins I0..I{k-1}.
std::string cell_expression(const Cell& cell) {
  aig::TruthTable tt(cell.num_inputs);
  for (int m = 0; m < (1 << cell.num_inputs); ++m) {
    tt.set_bit(m, (cell.function >> m) & 1);
  }
  if (tt.is_const0()) return "1'b0";
  if (tt.is_const1()) return "1'b1";
  const auto cubes = aig::isop(tt);
  std::string expr;
  for (std::size_t c = 0; c < cubes.size(); ++c) {
    if (c) expr += " | ";
    std::string term;
    for (int v = 0; v < cell.num_inputs; ++v) {
      if (!(cubes[c].mask & (1u << v))) continue;
      if (!term.empty()) term += " & ";
      if (!(cubes[c].polarity & (1u << v))) term += "~";
      term += "I" + std::to_string(v);
    }
    expr += term.empty() ? "1'b1" : "(" + term + ")";
  }
  return expr;
}

}  // namespace

void write_verilog(const MappingResult& result, const CellLibrary& lib,
                   const aig::Aig& g, std::ostream& os) {
  // Cell module definitions (only the cells actually used).
  std::set<int> used;
  for (const auto& inst : result.instances) used.insert(inst.cell_index);
  for (int ci : used) {
    const Cell& cell = lib.cell(ci);
    os << "module " << cell.name << "(";
    for (int i = 0; i < cell.num_inputs; ++i) {
      os << "input I" << i << ", ";
    }
    os << "output Y);\n  assign Y = " << cell_expression(cell)
       << ";\nendmodule\n\n";
  }

  // Top module.
  os << "module " << sanitize(g.name()) << "(";
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    os << "input " << sanitize(g.pi_name(i)) << ", ";
  }
  for (std::size_t i = 0; i < g.num_pos(); ++i) {
    if (i) os << ", ";
    os << "output " << sanitize(g.po_name(i));
  }
  os << ");\n";
  os << "  wire const0 = 1'b0;\n  wire const1 = 1'b1;\n";
  std::set<std::string> declared;
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    declared.insert(sanitize(g.pi_name(i)));
  }
  declared.insert("const0");
  declared.insert("const1");
  for (const auto& inst : result.instances) {
    if (declared.insert(inst.output_net).second) {
      os << "  wire " << inst.output_net << ";\n";
    }
  }
  int index = 0;
  for (const auto& inst : result.instances) {
    const Cell& cell = lib.cell(inst.cell_index);
    os << "  " << cell.name << " u" << index++ << "(";
    for (std::size_t i = 0; i < inst.input_nets.size(); ++i) {
      os << ".I" << i << "(" << inst.input_nets[i] << "), ";
    }
    os << ".Y(" << inst.output_net << "));\n";
  }
  for (std::size_t i = 0; i < g.num_pos(); ++i) {
    os << "  assign " << sanitize(g.po_name(i)) << " = "
       << result.po_nets[i] << ";\n";
  }
  os << "endmodule\n";
}

}  // namespace clo::techmap
