#include "clo/techmap/tech_map.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <limits>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "clo/aig/cuts.hpp"
#include "clo/aig/truth.hpp"
#include "clo/aig/window.hpp"

namespace clo::techmap {

using aig::Aig;
using aig::Cut;
using aig::Lit;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Priority cuts kept per node (4-leaf cuts, aig::kCutLeaves).
constexpr int kMaxCutsPerNode = 12;
static_assert(aig::kCutLeaves <= kMaxCellInputs,
              "a cut function has at most as many inputs as a cell");

/// A non-trivial cut's function, derived once per mapping call: the cut's
/// position in its node's CutSet list, the leaves the function depends on
/// (bit i = leaf i), and the function over those support leaves in order
/// (bit j = value on minterm j). Every selection round reads it.
struct CutFunction {
  std::uint8_t cut = 0;
  std::uint8_t support = 0;
  std::uint16_t bits = 0;
};

/// How one polarity of a node is implemented. A wire is a cut function
/// that is one leaf or its complement; a cell is match `match` of
/// lib.matches() for the cut function `cut` in this polarity; an
/// inverter takes the node's other polarity.
struct Choice {
  enum Kind : std::uint8_t { kNone, kWire, kCell, kInverter };
  Kind kind = kNone;
  std::uint8_t match = 0;
  std::uint32_t cut = 0;  ///< index into the CutFunction table
};

struct NodeCost {
  double arrival[2] = {kInf, kInf};
  double aflow[2] = {kInf, kInf};
  Choice choice[2];
};

/// The function of a cut of k <= 4 leaves, given its truth table `table`
/// over the leaves (leaf i = variable i), restricted to its support.
CutFunction reduce_support(std::uint16_t table, int k) {
  // kVarZero[v]: the minterms whose variable v is 0.
  constexpr std::uint16_t kVarZero[4] = {0x5555, 0x3333, 0x0f0f, 0x00ff};
  CutFunction cf;
  for (int v = 0; v < k; ++v) {
    if (((table >> (1 << v)) ^ table) & kVarZero[v]) cf.support |= 1u << v;
  }
  // The minterms that are 0 off the support, in increasing order, are the
  // reduced function's minterms 0, 1, 2, ...
  int minterm = 0;
  for (int full = 0; full < (1 << k); ++full) {
    if (full & ~cf.support) continue;
    if ((table >> full) & 1) cf.bits |= 1u << minterm;
    ++minterm;
  }
  return cf;
}

/// The support leaves of `cf` (a function of `cut`), in variable order.
/// Returns their number m.
int support_leaves(const CutFunction& cf, const Cut& cut,
                   std::array<std::uint32_t, kMaxCellInputs>& leaves) {
  int m = 0;
  for (int i = 0; i < static_cast<int>(cut.leaves.size()); ++i) {
    if ((cf.support >> i) & 1) leaves[m++] = cut.leaves[i];
  }
  return m;
}

/// The function `cf` over its m support leaves in polarity `pol`.
std::uint16_t polarity_bits(const CutFunction& cf, int m, int pol) {
  const std::uint16_t mask = static_cast<std::uint16_t>((1u << (1 << m)) - 1);
  return pol ? static_cast<std::uint16_t>(~cf.bits & mask) : cf.bits;
}

}  // namespace

MappingResult tech_map(const Aig& g, const CellLibrary& lib,
                       const MapParams& params) {
  const bool delay_oriented = params.objective == MapParams::Objective::kDelay;
  const Cell& inv = lib.inverter();
  const auto order = g.topo_order();

  // ---- Matching walk ------------------------------------------------------
  // Each non-trivial cut's cone is simulated once; node order[i] owns
  // functions[first[i] .. first[i + 1]). Semantically constant cuts are
  // dropped: they implement nothing.
  aig::CutSet cuts(g, kMaxCutsPerNode);
  aig::Window window;
  std::vector<CutFunction> functions;
  std::vector<std::uint32_t> first(order.size() + 1, 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint32_t n = order[i];
    const std::vector<Cut>& node_cuts = cuts.cuts_of(n);
    for (std::size_t c = 0; c < node_cuts.size(); ++c) {
      const Cut& cut = node_cuts[c];
      if (cut.leaves.size() == 1 && cut.leaves[0] == n) continue;  // trivial
      // A cut's cone never leaves the cut in a well-formed graph.
      if (!window.simulate(g, n, cut.leaves, std::numeric_limits<int>::max())) {
        throw std::logic_error("tech_map: cut cone escapes its leaves");
      }
      CutFunction cf =
          reduce_support(static_cast<std::uint16_t>(window.table(n).w[0]),
                         static_cast<int>(cut.leaves.size()));
      if (cf.support == 0) continue;
      cf.cut = static_cast<std::uint8_t>(c);
      functions.push_back(cf);
    }
    first[i + 1] = static_cast<std::uint32_t>(functions.size());
  }

  // Calls visit(leaf, phase, pin) for each fanin of polarity `pol` of `n`
  // as implemented by `ch`, in match input order: a wire's one leaf, a
  // cell's support leaves, an inverter's other polarity of `n`. Returns
  // the cell placed, or -1 for a wire or an unresolved choice.
  auto for_each_fanin = [&](std::uint32_t n, int pol, const Choice& ch,
                            auto&& visit) {
    if (ch.kind == Choice::kInverter) {
      visit(n, 1 - pol, 0);
      return lib.inverter_index();
    }
    if (ch.kind == Choice::kNone) return -1;
    const CutFunction& cf = functions[ch.cut];
    std::array<std::uint32_t, kMaxCellInputs> leaves;
    const int m = support_leaves(cf, cuts.cuts_of(n)[cf.cut], leaves);
    const std::uint16_t f = polarity_bits(cf, m, pol);
    if (ch.kind == Choice::kWire) {
      visit(leaves[0], f == 0x1 ? 1 : 0, 0);  // f == !x
      return -1;
    }
    const CellMatch& match = lib.matches(f, m)[ch.match];
    for (int i = 0; i < m; ++i) {
      visit(leaves[i], match.input_phase[i] ? 1 : 0, match.pin_of_input[i]);
    }
    return match.cell_index;
  };

  // ---- Selection rounds ---------------------------------------------------
  std::vector<NodeCost> cost(g.num_slots());
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
  // The one comparison: arrival first for the delay objective, area flow
  // first for the area objective, each breaking ties with the other.
  auto offer = [&](NodeCost& c, int pol, double arr, double af,
                   const Choice& ch) {
    const bool better =
        delay_oriented ? arr < c.arrival[pol] ||
                             (arr == c.arrival[pol] && af < c.aflow[pol])
                       : af < c.aflow[pol] ||
                             (af == c.aflow[pol] && arr < c.arrival[pol]);
    if (!better) return;
    c.arrival[pol] = arr;
    c.aflow[pol] = af;
    c.choice[pol] = ch;
  };

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
      c.choice[1].kind = Choice::kInverter;
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint32_t n = order[i];
      NodeCost& c = cost[n];
      const std::vector<Cut>& node_cuts = cuts.cuts_of(n);
      for (std::uint32_t e = first[i]; e < first[i + 1]; ++e) {
        const CutFunction& cf = functions[e];
        std::array<std::uint32_t, kMaxCellInputs> leaves;
        const int m = support_leaves(cf, node_cuts[cf.cut], leaves);
        for (int pol = 0; pol < 2; ++pol) {
          const std::uint16_t f = polarity_bits(cf, m, pol);
          // Single-support wire: the function is a leaf or its complement.
          if (m == 1) {
            const int phase = f == 0x1 ? 1 : 0;  // f == !x
            offer(c, pol, cost[leaves[0]].arrival[phase],
                  cost[leaves[0]].aflow[phase], Choice{Choice::kWire, 0, e});
            continue;
          }
          const std::vector<CellMatch>& matches = lib.matches(f, m);
          for (std::size_t k = 0; k < matches.size(); ++k) {
            const CellMatch& match = matches[k];
            const Cell& cell = lib.cell(match.cell_index);
            double arr = 0.0;
            double af = cell.area_um2;
            for (int j = 0; j < m; ++j) {
              const NodeCost& leaf = cost[leaves[j]];
              const int phase = match.input_phase[j] ? 1 : 0;
              arr = std::max(arr, leaf.arrival[phase]);
              af += leaf.aflow[phase] / refs_of(leaves[j]);
            }
            if (arr == kInf) continue;  // a leaf polarity is unmapped
            offer(c, pol, arr + cell.delay_ps, af,
                  Choice{Choice::kCell, static_cast<std::uint8_t>(k), e});
          }
        }
      }
      // Inverter relaxation between the two polarities.
      for (int round = 0; round < 2; ++round) {
        for (int pol = 0; pol < 2; ++pol) {
          const int other = 1 - pol;
          if (c.arrival[other] == kInf) continue;
          offer(c, pol, c.arrival[other] + inv.delay_ps,
                c.aflow[other] + inv.area_um2, Choice{Choice::kInverter, 0, 0});
        }
      }
    }
  };

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
        for_each_fanin(n, pol, cost[n].choice[pol],
                       [&](std::uint32_t leaf, int phase, int) {
                         touch(leaf, phase);
                       });
      }
      run_selection();
    }
  }

  // ---- Cover extraction ---------------------------------------------------
  MappingResult result;
  // The net that implements (n, pol): a wire choice passes its leaf on.
  auto driver = [&](std::uint32_t n, int pol) {
    while (cost[n].choice[pol].kind == Choice::kWire) {
      for_each_fanin(n, pol, cost[n].choice[pol],
                     [&](std::uint32_t leaf, int phase, int) {
                       n = leaf;
                       pol = phase;
                     });
    }
    return aig::make_lit(n, pol != 0);
  };

  std::vector<std::array<bool, 2>> required(g.num_slots(), {false, false});
  std::vector<std::pair<std::uint32_t, int>> stack;
  auto require = [&](std::uint32_t n, int pol) {
    if (required[n][pol]) return;
    required[n][pol] = true;
    stack.emplace_back(n, pol);
  };
  for (std::size_t i = 0; i < g.num_pos(); ++i) {
    const std::uint32_t n = aig::lit_node(g.po(i));
    const int pol = aig::lit_is_compl(g.po(i)) ? 1 : 0;
    require(n, pol);
    if (cost[n].arrival[pol] != kInf) {
      result.delay_ps = std::max(result.delay_ps, cost[n].arrival[pol]);
    }
    result.po_drivers.push_back(driver(n, pol));
  }
  while (!stack.empty()) {
    const auto [n, pol] = stack.back();
    stack.pop_back();
    // The constant is tied off and a PI drives itself: no cell. A
    // complemented PI is an inverter choice like any other.
    if (n == 0 || (g.is_pi(n) && pol == 0)) continue;
    CellInstance inst{-1, aig::make_lit(n, pol != 0), {}};
    inst.cell_index = for_each_fanin(
        n, pol, cost[n].choice[pol],
        [&](std::uint32_t leaf, int phase, int pin) {
          inst.inputs[pin] = driver(leaf, phase);
          require(leaf, phase);
        });
    // A wire adds no cell; an unresolved choice (should not happen) neither.
    if (inst.cell_index < 0) continue;
    result.area_um2 += lib.cell(inst.cell_index).area_um2;
    result.instances.push_back(inst);
  }
  result.num_cells = static_cast<int>(result.instances.size());
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

  // Top module. A net is named after its node: a PI by its name, an
  // internal node n<id>, a complement with `_bar`.
  std::vector<std::string> pi_net(g.num_slots());
  std::set<std::string> declared{"const0", "const1"};
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    pi_net[g.pi_node(i)] = sanitize(g.pi_name(i));
    declared.insert(pi_net[g.pi_node(i)]);
  }
  auto net = [&](Lit l) -> std::string {
    const std::uint32_t n = aig::lit_node(l);
    const bool bar = aig::lit_is_compl(l);
    if (n == 0) return bar ? "const1" : "const0";
    const std::string base = g.is_pi(n) ? pi_net[n] : "n" + std::to_string(n);
    return bar ? base + "_bar" : base;
  };
  os << "module " << sanitize(g.name()) << "(";
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    os << "input " << pi_net[g.pi_node(i)] << ", ";
  }
  for (std::size_t i = 0; i < g.num_pos(); ++i) {
    if (i) os << ", ";
    os << "output " << sanitize(g.po_name(i));
  }
  os << ");\n";
  os << "  wire const0 = 1'b0;\n  wire const1 = 1'b1;\n";
  for (const auto& inst : result.instances) {
    const std::string out = net(inst.output);
    if (declared.insert(out).second) os << "  wire " << out << ";\n";
  }
  int index = 0;
  for (const auto& inst : result.instances) {
    const Cell& cell = lib.cell(inst.cell_index);
    os << "  " << cell.name << " u" << index++ << "(";
    for (int i = 0; i < cell.num_inputs; ++i) {
      os << ".I" << i << "(" << net(inst.inputs[i]) << "), ";
    }
    os << ".Y(" << net(inst.output) << "));\n";
  }
  for (std::size_t i = 0; i < g.num_pos(); ++i) {
    os << "  assign " << sanitize(g.po_name(i)) << " = "
       << net(result.po_drivers[i]) << ";\n";
  }
  os << "endmodule\n";
}

}  // namespace clo::techmap
