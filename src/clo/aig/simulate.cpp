#include "clo/aig/simulate.hpp"

#include <algorithm>
#include <stdexcept>

namespace clo::aig {

std::vector<std::uint64_t> simulate_words(
    const Aig& g, const std::vector<std::uint64_t>& pi_words) {
  if (pi_words.size() != g.num_pis()) {
    throw std::invalid_argument("simulate_words: PI count mismatch");
  }
  std::vector<std::uint64_t> value(g.num_slots(), 0);
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    value[g.pi_node(i)] = pi_words[i];
  }
  auto lit_value = [&](Lit l) {
    const std::uint64_t v = value[lit_node(l)];
    return lit_is_compl(l) ? ~v : v;
  };
  for (std::uint32_t n : g.topo_order()) {
    value[n] = lit_value(g.fanin0(n)) & lit_value(g.fanin1(n));
  }
  std::vector<std::uint64_t> out(g.num_pos());
  for (std::size_t i = 0; i < g.num_pos(); ++i) out[i] = lit_value(g.po(i));
  return out;
}

std::vector<bool> simulate(const Aig& g, const std::vector<bool>& pi_values) {
  std::vector<std::uint64_t> words(pi_values.size());
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    words[i] = pi_values[i] ? ~0ULL : 0ULL;
  }
  const auto out = simulate_words(g, words);
  std::vector<bool> result(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) result[i] = (out[i] & 1) != 0;
  return result;
}

std::vector<TruthTable> po_truth_tables(const Aig& g) {
  const int n = static_cast<int>(g.num_pis());
  if (n > 16) throw std::invalid_argument("po_truth_tables: too many PIs");
  std::vector<TruthTable> value;
  value.reserve(g.num_slots());
  for (std::size_t i = 0; i < g.num_slots(); ++i) {
    value.emplace_back(TruthTable::constant(n, false));
  }
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    value[g.pi_node(i)] = TruthTable::variable(n, static_cast<int>(i));
  }
  auto lit_value = [&](Lit l) {
    return lit_is_compl(l) ? ~value[lit_node(l)] : value[lit_node(l)];
  };
  for (std::uint32_t node : g.topo_order()) {
    value[node] = lit_value(g.fanin0(node)) & lit_value(g.fanin1(node));
  }
  std::vector<TruthTable> out;
  out.reserve(g.num_pos());
  for (std::size_t i = 0; i < g.num_pos(); ++i) out.push_back(lit_value(g.po(i)));
  return out;
}

CecResult cec(const Aig& a, const Aig& b, clo::Rng& rng, int random_words,
              int exhaustive_limit) {
  CecResult result;
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    result.equivalent = false;
    return result;
  }
  const std::size_t n = a.num_pis();
  if (static_cast<int>(n) <= exhaustive_limit) {
    result.exhaustive = true;
    const auto ta = po_truth_tables(a);
    const auto tb = po_truth_tables(b);
    result.patterns_checked = std::size_t{1} << n;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      if (ta[i] != tb[i]) {
        result.equivalent = false;
        result.failing_po = i;
        return result;
      }
    }
    return result;
  }
  std::vector<std::uint64_t> words(n);
  for (int round = 0; round < random_words; ++round) {
    for (auto& w : words) w = rng.next_u64();
    const auto oa = simulate_words(a, words);
    const auto ob = simulate_words(b, words);
    result.patterns_checked += 64;
    for (std::size_t i = 0; i < oa.size(); ++i) {
      if (oa[i] != ob[i]) {
        result.equivalent = false;
        result.failing_po = i;
        return result;
      }
    }
  }
  return result;
}

}  // namespace clo::aig
