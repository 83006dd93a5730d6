#pragma once
// Internal to the kernel TUs (kernel.cpp / kernel_avx2.cpp). The folds
// here ARE the reduction semantics every dispatch target must implement;
// sharing one definition keeps them from drifting apart. Only the kernel
// TUs include this header, and both are built with -ffp-contract=off, so
// dot_strided's mul+add pairs are never fused into an FMA.

#include <cstddef>
#include <limits>

namespace clo::nn::kernel::detail {

/// Fixed tree over 8 interleaved partial sums plus the sequential tail
/// (same layout conv1d's forward has used since PR 3).
inline float reduce8(const float lanes[8], float tail) {
  const float s04 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
  const float s26 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
  return (s04 + s26) + tail;
}

/// dot() of a[0..k) with the column b[0], b[ldb], b[2*ldb], ...: the same
/// eight interleaved partial sums, reduce8 tree and sequential tail. One
/// element of matmul_tree; the vector target uses it for the columns left
/// over after its 8-wide blocks.
inline float dot_strided(const float* a, const float* b, std::size_t ldb,
                         int k) {
  float lanes[8] = {};
  int l = 0;
  for (; l + 8 <= k; l += 8)
    for (int t = 0; t < 8; ++t)
      lanes[t] += a[l + t] * b[static_cast<std::size_t>(l + t) * ldb];
  float tail = 0.0f;
  for (; l < k; ++l) tail += a[l] * b[static_cast<std::size_t>(l) * ldb];
  return reduce8(lanes, tail);
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
