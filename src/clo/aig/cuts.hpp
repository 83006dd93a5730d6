#pragma once
// K-feasible priority cuts (k = kCutLeaves), shared by the rewriting pass
// and the technology mapper.

#include <cstdint>
#include <vector>

#include "clo/aig/aig.hpp"
#include "clo/aig/window.hpp"

namespace clo::aig {

/// Leaves per cut. The mapper packs a cut function into 16 bits, and a
/// cut's cone is simulated in an aig::Window.
inline constexpr int kCutLeaves = 4;
static_assert(kCutLeaves <= 4, "cut functions are packed into 16 bits");
static_assert(kCutLeaves <= kMaxWindowLeaves, "cut cones fill a Window");

/// A cut: sorted leaf node indices. The trivial cut {n} is always present.
struct Cut {
  std::vector<std::uint32_t> leaves;

  bool operator==(const Cut& o) const { return leaves == o.leaves; }

  /// True if every leaf of this cut is also a leaf of `o` (this dominates).
  bool dominates(const Cut& o) const;
};

/// Per-node cut sets, computed on demand. The first request for a node
/// derives its cuts from its *current* fanins and memoizes them; a caller
/// that edits the graph visits nodes in a topological-order snapshot, so a
/// memoized node's fanins never change afterwards. Non-AND nodes (const 0,
/// PIs) have only their trivial cut; an AND node keeps at most `max_cuts`
/// cuts, fewest leaves first, followed by its trivial cut.
class CutSet {
 public:
  CutSet(const Aig& g, int max_cuts) : g_(g), max_cuts_(max_cuts) {}

  const std::vector<Cut>& cuts_of(std::uint32_t node);

 private:
  const std::vector<Cut>& compute(std::uint32_t node);

  const Aig& g_;
  int max_cuts_;
  std::vector<std::vector<Cut>> memo_;  ///< empty = not computed yet
};

/// Merge two cuts; returns false if the union exceeds k leaves.
bool merge_cuts(const Cut& a, const Cut& b, int k, Cut& out);

}  // namespace clo::aig
