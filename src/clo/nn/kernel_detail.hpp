#pragma once
// Internal to the kernel TUs (kernel.cpp / kernel_avx2.cpp). The folds
// here ARE the reduction semantics every dispatch target must implement;
// sharing one definition keeps them from drifting apart. Pure adds and
// compares — nothing here is contractible into an FMA.

#include <limits>

namespace clo::nn::kernel::detail {

/// Fixed tree over 8 interleaved partial sums plus the sequential tail
/// (same layout conv1d's forward has used since PR 3).
inline float reduce8(const float lanes[8], float tail) {
  const float s04 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
  const float s26 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
  return (s04 + s26) + tail;
}

/// Fixed fold for 8-lane maxima with the `x > m ? x : m` select. NaN
/// handling does NOT ride on this fold: max_value detects NaN with a
/// separate unordered-compare accumulator and returns canonical_nan(), so
/// the fold itself only ever sees the max-of-non-NaN path.
inline float fold_max8(const float lanes[8]) {
  float m = lanes[0];
  for (int t = 1; t < 8; ++t) m = lanes[t] > m ? lanes[t] : m;
  return m;
}

/// The one NaN every target returns from max_value when any input element
/// is NaN — payload-pinned so "NaN in, NaN out" is still bitwise
/// deterministic across targets and element positions.
inline float canonical_nan() { return std::numeric_limits<float>::quiet_NaN(); }

}  // namespace clo::nn::kernel::detail
