#pragma once
// Cone windows shared by every pass that needs a cone's function: the
// reconvergence-driven cut (Mishchenko-style) that bounds refactoring and
// resubstitution windows, and aig::Window, which simulates a root's cone
// over its leaves. Rewriting, refactoring, resubstitution and the
// technology mapper all take cone functions from Window.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "clo/aig/aig.hpp"
#include "clo/aig/truth.hpp"

namespace clo::aig {

/// Reconvergence-driven cut of at most `max_leaves` leaves for `root`.
/// Leaves are node indices (PIs or internal nodes); every path from root
/// to the PIs crosses a leaf.
std::vector<std::uint32_t> reconvergence_cut(const Aig& g, std::uint32_t root,
                                             int max_leaves);

/// Bounded cone function extraction: truth table of `root_lit` over
/// `leaves`, or nullopt if the cone escapes the leaves (reaches a PI or
/// dead node outside them — possible after unrelated graph edits) or
/// visits more than `max_nodes` internal nodes. A hash map of heap tables:
/// no pass calls it; it is the reference the Window tests compare against.
std::optional<TruthTable> try_cone_truth_table(
    const Aig& g, Lit root_lit, const std::vector<std::uint32_t>& leaves,
    int max_nodes);

/// Most leaves a Window holds: 2^8 minterms fill four 64-bit words.
inline constexpr int kMaxWindowLeaves = 8;

/// Truth table over at most kMaxWindowLeaves variables, stored inline.
/// Minterms at or past 2^k, and whole words past them, stay zero, so two
/// tables of the same window are equal exactly when their words are.
struct WindowTable {
  std::uint64_t w[4] = {0, 0, 0, 0};

  friend WindowTable operator&(const WindowTable& a, const WindowTable& b) {
    return {{a.w[0] & b.w[0], a.w[1] & b.w[1], a.w[2] & b.w[2],
             a.w[3] & b.w[3]}};
  }
  friend WindowTable operator|(const WindowTable& a, const WindowTable& b) {
    return {{a.w[0] | b.w[0], a.w[1] | b.w[1], a.w[2] | b.w[2],
             a.w[3] | b.w[3]}};
  }
  friend WindowTable operator^(const WindowTable& a, const WindowTable& b) {
    return {{a.w[0] ^ b.w[0], a.w[1] ^ b.w[1], a.w[2] ^ b.w[2],
             a.w[3] ^ b.w[3]}};
  }
  friend bool operator==(const WindowTable& a, const WindowTable& b) {
    return ((a.w[0] ^ b.w[0]) | (a.w[1] ^ b.w[1]) | (a.w[2] ^ b.w[2]) |
            (a.w[3] ^ b.w[3])) == 0;
  }
};

/// A window: the cone of a root bounded by its leaves, the function of
/// every cone node over the leaves, and (for resubstitution) the divisor
/// candidates. A pass keeps one Window and rebuilds it node after node;
/// node-indexed stamp arrays stand in for hash sets and every buffer keeps
/// its capacity, so a rebuild allocates only while the graph grows.
class Window {
 public:
  /// Simulate the cone of `root` bounded by `leaves` (at most
  /// kMaxWindowLeaves, else std::invalid_argument) in one post-order walk.
  /// Leaf i is variable i; the const-0 node, when not a leaf, is all
  /// zeros. Returns false exactly when try_cone_truth_table would return
  /// nullopt for the root: the cone reaches a PI or dead node outside the
  /// leaves, or has more than `max_nodes` internal nodes.
  bool simulate(const Aig& g, std::uint32_t root,
                const std::vector<std::uint32_t>& leaves, int max_nodes);

  /// After a successful simulate(): the divisor candidates for the root,
  /// in order: the non-constant leaves, then the cone nodes that are
  /// neither the root nor in its MFFC, in topological order, stopping once
  /// the list reaches `max_divisors`.
  const std::vector<std::uint32_t>& collect_divisors(Aig& g,
                                                     int max_divisors);

  /// Function of a leaf or cone node of the last successful simulate().
  const WindowTable& table(std::uint32_t node) const {
    return tables_[slot_[node]];
  }
  /// Function of `l` (a leaf or cone node, maybe complemented) as a
  /// TruthTable over the k leaves of the last successful simulate().
  TruthTable truth(Lit l) const;
  /// The 2^k valid minterms: the complement of `t` is `t ^ mask()`.
  const WindowTable& mask() const { return mask_; }
  /// Internal nodes of the cone, root last, in topological order.
  const std::vector<std::uint32_t>& cone() const { return cone_; }

 private:
  void set_table(std::uint32_t node, const WindowTable& t);

  std::vector<std::uint32_t> stamp_;  ///< == epoch_: node has a table
  std::vector<std::uint32_t> slot_;   ///< node -> index into tables_
  std::vector<std::uint32_t> mffc_stamp_;  ///< == epoch_: node in MFFC
  std::uint32_t epoch_ = 0;
  std::uint32_t root_ = 0;
  std::vector<std::uint32_t> leaves_;
  WindowTable mask_;
  std::vector<WindowTable> tables_;
  std::vector<std::uint32_t> cone_;
  std::vector<std::uint32_t> divisors_;
  std::vector<std::pair<std::uint32_t, bool>> stack_;  ///< (node, expanded)
};

}  // namespace clo::aig
