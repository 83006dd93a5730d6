#include "clo/aig/aig.hpp"

#include <algorithm>
#include <stdexcept>

namespace clo::aig {

Lit Aig::add_pi(std::string name) {
  Node node;
  node.is_pi = true;
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  pis_.push_back(index);
  pi_names_.push_back(name.empty() ? "pi" + std::to_string(pis_.size() - 1)
                                   : std::move(name));
  return make_lit(index);
}

std::uint32_t Aig::add_po(Lit l, std::string name) {
  pos_.push_back(l);
  po_names_.push_back(name.empty() ? "po" + std::to_string(pos_.size() - 1)
                                   : std::move(name));
  nodes_[lit_node(l)].nref++;
  return static_cast<std::uint32_t>(pos_.size() - 1);
}

void Aig::set_po(std::size_t i, Lit l) {
  const std::uint32_t old_node = lit_node(pos_[i]);
  pos_[i] = l;
  nodes_[lit_node(l)].nref++;
  nodes_[old_node].nref--;
  kill_if_unreferenced(old_node);
}

std::optional<Lit> Aig::probe_and(Lit a, Lit b) const {
  if (a > b) std::swap(a, b);
  if (a == kLitFalse) return kLitFalse;
  if (a == kLitTrue) return b;
  if (a == b) return a;
  if (a == lit_not(b)) return kLitFalse;
  auto it = strash_.find(strash_key(a, b));
  if (it != strash_.end()) return make_lit(it->second);
  return std::nullopt;
}

Lit Aig::and_of(Lit a, Lit b) {
  if (auto hit = probe_and(a, b)) return *hit;
  if (a > b) std::swap(a, b);
  Node node;
  node.f0 = a;
  node.f1 = b;
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  strash_.emplace(strash_key(a, b), index);
  ref_fanins(index);
  ++num_ands_;
  return make_lit(index);
}

Lit Aig::xor_of(Lit a, Lit b) {
  // a ^ b = !(!(a & !b) & !(!a & b))
  const Lit t0 = and_of(a, lit_not(b));
  const Lit t1 = and_of(lit_not(a), b);
  return or_of(t0, t1);
}

Lit Aig::mux_of(Lit s, Lit t, Lit e) {
  const Lit t0 = and_of(s, t);
  const Lit t1 = and_of(lit_not(s), e);
  return or_of(t0, t1);
}

Lit Aig::maj_of(Lit a, Lit b, Lit c) {
  const Lit ab = and_of(a, b);
  const Lit ac = and_of(a, c);
  const Lit bc = and_of(b, c);
  return or_of(ab, or_of(ac, bc));
}

void Aig::ref_fanins(std::uint32_t n) {
  Node& node = nodes_[n];
  nodes_[lit_node(node.f0)].nref++;
  nodes_[lit_node(node.f0)].fanouts.push_back(n);
  nodes_[lit_node(node.f1)].nref++;
  nodes_[lit_node(node.f1)].fanouts.push_back(n);
}

void Aig::remove_fanout(std::uint32_t node, std::uint32_t fanout) {
  auto& fo = nodes_[node].fanouts;
  auto it = std::find(fo.begin(), fo.end(), fanout);
  if (it != fo.end()) {
    *it = fo.back();
    fo.pop_back();
  }
}

void Aig::kill_if_unreferenced(std::uint32_t n) {
  if (n == 0 || nodes_[n].is_pi || nodes_[n].dead) return;
  if (nodes_[n].nref > 0) return;
  Node& node = nodes_[n];
  node.dead = true;
  --num_ands_;
  // Drop the strash entry if it still points at this node.
  Lit a = node.f0, b = node.f1;
  if (a > b) std::swap(a, b);
  auto it = strash_.find(strash_key(a, b));
  if (it != strash_.end() && it->second == n) strash_.erase(it);
  const std::uint32_t c0 = lit_node(node.f0);
  const std::uint32_t c1 = lit_node(node.f1);
  remove_fanout(c0, n);
  nodes_[c0].nref--;
  remove_fanout(c1, n);
  nodes_[c1].nref--;
  node.fanouts.clear();
  kill_if_unreferenced(c0);
  kill_if_unreferenced(c1);
}

void Aig::replace(std::uint32_t n, Lit with) {
  if (make_lit(n) == with) return;
  if (lit_node(with) == n) {
    throw std::logic_error("Aig::replace: self-replacement with complement");
  }
  // Redirect AND fanouts.
  std::vector<std::uint32_t> fanout_copy = nodes_[n].fanouts;
  for (std::uint32_t f : fanout_copy) {
    if (nodes_[f].dead) continue;
    Node& fn = nodes_[f];
    if (lit_node(fn.f0) != n && lit_node(fn.f1) != n) continue;
    // Unhash f under its old fanin pair before mutating it; the entry
    // would otherwise go stale and make strash return wrong nodes.
    {
      Lit a = fn.f0, b = fn.f1;
      if (a > b) std::swap(a, b);
      auto it = strash_.find(strash_key(a, b));
      if (it != strash_.end() && it->second == f) strash_.erase(it);
    }
    if (lit_node(fn.f0) == n) fn.f0 = lit_notc(with, lit_is_compl(fn.f0));
    if (lit_node(fn.f1) == n) fn.f1 = lit_notc(with, lit_is_compl(fn.f1));
    // Re-hash under the new pair unless an equivalent node already holds
    // the slot (duplicate structure is later folded by cleanup()).
    {
      Lit a = fn.f0, b = fn.f1;
      if (a > b) std::swap(a, b);
      strash_.try_emplace(strash_key(a, b), f);
    }
    // Maintain refs/fanouts. A fanout may reference n twice; handle counts
    // by recomputing how many of its fanins point where.
    int moved = 0;
    moved += (lit_node(fn.f0) == lit_node(with)) ? 1 : 0;
    moved += (lit_node(fn.f1) == lit_node(with)) ? 1 : 0;
    // Remove all fanout records of f from n, re-add to `with`'s node.
    int removed = 0;
    auto& fo = nodes_[n].fanouts;
    for (std::size_t i = 0; i < fo.size();) {
      if (fo[i] == f) {
        fo[i] = fo.back();
        fo.pop_back();
        ++removed;
      } else {
        ++i;
      }
    }
    nodes_[n].nref -= removed;
    for (int k = 0; k < moved; ++k) {
      nodes_[lit_node(with)].fanouts.push_back(f);
      nodes_[lit_node(with)].nref++;
    }
    // Note: fn may now be trivially reducible (equal/complement fanins) or
    // duplicate an existing strash entry; cleanup() re-canonicalizes.
  }
  // Redirect POs.
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    if (lit_node(pos_[i]) == n) {
      const Lit new_po = lit_notc(with, lit_is_compl(pos_[i]));
      pos_[i] = new_po;
      nodes_[lit_node(with)].nref++;
      nodes_[n].nref--;
    }
  }
  kill_if_unreferenced(n);
}

int Aig::deref_count(std::uint32_t n) {
  // Counts AND nodes in the MFFC by simulating deletion via ref counts.
  if (!is_and(n)) return 0;
  int count = 1;
  for (Lit f : {nodes_[n].f0, nodes_[n].f1}) {
    const std::uint32_t c = lit_node(f);
    if (--nodes_[c].nref == 0) count += deref_count(c);
  }
  return count;
}

void Aig::ref_restore(std::uint32_t n) {
  if (!is_and(n)) return;
  for (Lit f : {nodes_[n].f0, nodes_[n].f1}) {
    const std::uint32_t c = lit_node(f);
    if (nodes_[c].nref++ == 0) ref_restore(c);
  }
}

int Aig::mffc_size(std::uint32_t n) {
  if (!is_and(n)) return 0;
  const int count = deref_count(n);
  ref_restore(n);
  return count;
}

std::vector<std::uint32_t> Aig::mffc_nodes(std::uint32_t n) {
  std::vector<std::uint32_t> result;
  if (!is_and(n)) return result;
  // Deref to expose the cone, then walk nodes whose refs dropped to zero.
  // A pushed node's ref count is parked at -1 until the walk ends, which
  // marks it as seen without searching `result` or `stack`.
  deref_count(n);
  std::vector<std::uint32_t> stack{n};
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    result.push_back(v);
    for (Lit f : {nodes_[v].f0, nodes_[v].f1}) {
      const std::uint32_t c = lit_node(f);
      if (is_and(c) && nodes_[c].nref == 0) {
        nodes_[c].nref = -1;
        stack.push_back(c);
      }
    }
  }
  for (std::size_t i = 1; i < result.size(); ++i) nodes_[result[i]].nref = 0;
  ref_restore(n);
  return result;
}

bool Aig::reaches(Lit root_lit, std::uint32_t target,
                  const std::vector<std::uint32_t>& boundary) const {
  std::vector<std::uint32_t> stack{lit_node(root_lit)};
  std::vector<std::uint32_t> visited;
  auto is_boundary = [&](std::uint32_t v) {
    return std::find(boundary.begin(), boundary.end(), v) != boundary.end();
  };
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    if (v == target) return true;
    if (std::find(visited.begin(), visited.end(), v) != visited.end()) continue;
    visited.push_back(v);
    if (!is_and(v) || is_boundary(v)) continue;
    stack.push_back(lit_node(nodes_[v].f0));
    stack.push_back(lit_node(nodes_[v].f1));
  }
  return false;
}

std::vector<std::uint32_t> Aig::topo_order() const {
  // Nodes are created fanin-first and replace() never introduces cycles,
  // but redirected fanins can point to higher indices, so do a real DFS.
  std::vector<std::uint32_t> order;
  order.reserve(num_ands_);
  std::vector<std::uint8_t> mark(nodes_.size(), 0);
  std::vector<std::pair<std::uint32_t, int>> stack;
  auto visit = [&](std::uint32_t root) {
    if (mark[root]) return;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [v, phase] = stack.back();
      if (!is_and(v) || mark[v] == 2) {
        mark[v] = 2;
        stack.pop_back();
        continue;
      }
      if (phase == 0) {
        mark[v] = 1;
        phase = 1;
        const std::uint32_t c0 = lit_node(nodes_[v].f0);
        const std::uint32_t c1 = lit_node(nodes_[v].f1);
        if (mark[c0] != 2) stack.emplace_back(c0, 0);
        if (mark[c1] != 2) stack.emplace_back(c1, 0);
      } else {
        mark[v] = 2;
        order.push_back(v);
        stack.pop_back();
      }
    }
  };
  for (Lit po : pos_) visit(lit_node(po));
  return order;
}

std::vector<int> Aig::levels() const {
  std::vector<int> level(nodes_.size(), 0);
  for (std::uint32_t n : topo_order()) {
    level[n] = 1 + std::max(level[lit_node(nodes_[n].f0)],
                            level[lit_node(nodes_[n].f1)]);
  }
  return level;
}

int Aig::depth() const {
  const auto level = levels();
  int d = 0;
  for (Lit po : pos_) d = std::max(d, level[lit_node(po)]);
  return d;
}

void Aig::cleanup() {
  Aig fresh;
  fresh.name_ = name_;
  std::vector<Lit> map(nodes_.size(), kLitNull);
  map[0] = kLitFalse;
  for (std::size_t i = 0; i < pis_.size(); ++i) {
    map[pis_[i]] = fresh.add_pi(pi_names_[i]);
  }
  for (std::uint32_t n : topo_order()) {
    const Lit a = map[lit_node(nodes_[n].f0)];
    const Lit b = map[lit_node(nodes_[n].f1)];
    map[n] = fresh.and_of(lit_notc(a, lit_is_compl(nodes_[n].f0)),
                          lit_notc(b, lit_is_compl(nodes_[n].f1)));
  }
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    const Lit m = map[lit_node(pos_[i])];
    fresh.add_po(lit_notc(m, lit_is_compl(pos_[i])), po_names_[i]);
  }
  *this = std::move(fresh);
}

void Aig::check() const {
  std::vector<int> refs(nodes_.size(), 0);
  for (std::uint32_t n = 1; n < nodes_.size(); ++n) {
    if (nodes_[n].dead || nodes_[n].is_pi) continue;
    const Lit a = nodes_[n].f0;
    const Lit b = nodes_[n].f1;
    if (a == kLitNull || b == kLitNull) {
      throw std::logic_error("AND node with null fanin");
    }
    if (nodes_[lit_node(a)].dead || nodes_[lit_node(b)].dead) {
      throw std::logic_error("live node references dead fanin");
    }
    refs[lit_node(a)]++;
    refs[lit_node(b)]++;
  }
  for (Lit po : pos_) {
    if (nodes_[lit_node(po)].dead) {
      throw std::logic_error("PO references dead node");
    }
    refs[lit_node(po)]++;
  }
  for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].dead) continue;
    if (refs[n] != nodes_[n].nref) {
      throw std::logic_error("ref count mismatch at node " +
                             std::to_string(n));
    }
  }
  // topo_order throws implicitly on cycles by never terminating; instead
  // verify it covers all live ANDs reachable from POs and is well ordered.
  const auto order = topo_order();
  std::vector<int> pos_in_order(nodes_.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos_in_order[order[i]] = static_cast<int>(i);
  }
  for (std::uint32_t n : order) {
    for (Lit f : {nodes_[n].f0, nodes_[n].f1}) {
      const std::uint32_t c = lit_node(f);
      if (is_and(c) && pos_in_order[c] >= pos_in_order[n]) {
        throw std::logic_error("topological order violated (cycle?)");
      }
    }
  }
}

AigStats stats_of(const Aig& g) {
  AigStats s;
  s.num_pis = g.num_pis();
  s.num_pos = g.num_pos();
  s.num_ands = g.num_ands();
  s.depth = g.depth();
  return s;
}

}  // namespace clo::aig
