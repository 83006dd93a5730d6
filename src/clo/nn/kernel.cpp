#include "clo/nn/kernel.hpp"

#include <atomic>
#include <cmath>
#include <string_view>

#include "clo/nn/kernel_detail.hpp"

// Portable blocked scalar kernels + the runtime dispatch layer. The AVX2
// twins live in kernel_avx2.cpp (compiled only when the toolchain supports
// -mavx2; CMake then defines CLO_KERNEL_AVX2). Both kernel TUs are built
// with -ffp-contract=off so no mul+add pair is ever fused into an FMA —
// fusion would break the bitwise scalar/vector equality the dispatch
// contract promises (see kernel.hpp).

namespace clo::nn::kernel {

using detail::canonical_nan;
using detail::dot_strided;
using detail::fold_max8;
using detail::reduce8;

#ifdef CLO_KERNEL_AVX2
namespace avx2 {
float dot(const float* a, const float* b, std::size_t n);
float sqdist(const float* a, const float* b, std::size_t n);
float sum(const float* a, std::size_t n);
float max_value(const float* a, std::size_t n);
void axpy(float* y, float a, const float* x, std::size_t n);
void acc(float* y, const float* x, std::size_t n);
void add(float* out, const float* a, const float* b, std::size_t n);
void mul(float* out, const float* a, const float* b, std::size_t n);
void scale(float* out, const float* a, float s, std::size_t n);
void div_inplace(float* y, float z, std::size_t n);
void adam_update(float* p, float* m, float* v, const float* g, std::size_t n,
                 float beta1, float beta2, float lr, float bias_c1,
                 float bias_c2, float eps);
void matmul_ld(const float* a, int lda, const float* b, int ldb, float* out,
               int ldo, int m, int k, int n, bool transpose_b);
void matmul_ta_ld(const float* a, int lda, const float* b, int ldb, float* out,
                  int ldo, int m, int k, int n);
void matmul_tree(const float* a, int lda, const float* b, int ldb, float* out,
                 int ldo, int m, int k, int n);
}  // namespace avx2
#endif

// --- Dispatch state -----------------------------------------------------

namespace {

bool cpu_has_avx2_fma() {
#if defined(CLO_KERNEL_AVX2) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

std::atomic<int>& target_state() {
  static std::atomic<int> state{static_cast<int>(best_supported_target())};
  return state;
}

}  // namespace

bool target_compiled(Target t) {
  switch (t) {
    case Target::kScalar:
      return true;
    case Target::kAvx2:
#ifdef CLO_KERNEL_AVX2
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool target_supported(Target t) {
  switch (t) {
    case Target::kScalar:
      return true;
    case Target::kAvx2:
      return cpu_has_avx2_fma();
  }
  return false;
}

Target best_supported_target() {
  static const Target best =
      target_supported(Target::kAvx2) ? Target::kAvx2 : Target::kScalar;
  return best;
}

Target set_target(Target t) {
  const Target actual =
      t == Target::kAvx2 ? best_supported_target() : Target::kScalar;
  target_state().store(static_cast<int>(actual), std::memory_order_relaxed);
  return actual;
}

Target current_target() {
  return static_cast<Target>(target_state().load(std::memory_order_relaxed));
}

const char* target_name(Target t) {
  switch (t) {
    case Target::kAvx2:
      return "avx2";
    case Target::kScalar:
      return "scalar";
  }
  return "scalar";
}

const char* active_target() { return target_name(current_target()); }

bool parse_target(const char* name, Target* out) {
  const std::string_view s{name == nullptr ? "" : name};
  if (s == "scalar") {
    *out = Target::kScalar;
  } else if (s == "avx2") {
    *out = Target::kAvx2;
  } else if (s == "auto") {
    *out = best_supported_target();
  } else {
    return false;
  }
  return true;
}

// --- Scalar reference kernels -------------------------------------------

namespace scalar {
namespace {

float dot(const float* a, const float* b, std::size_t n) {
  float lanes[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (int t = 0; t < 8; ++t) lanes[t] += a[i + t] * b[i + t];
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i] * b[i];
  return reduce8(lanes, tail);
}

float sqdist(const float* a, const float* b, std::size_t n) {
  float lanes[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (int t = 0; t < 8; ++t) {
      const float d = a[i + t] - b[i + t];
      lanes[t] += d * d;
    }
  float tail = 0.0f;
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    tail += d * d;
  }
  return reduce8(lanes, tail);
}

float sum(const float* a, std::size_t n) {
  float lanes[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (int t = 0; t < 8; ++t) lanes[t] += a[i + t];
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i];
  return reduce8(lanes, tail);
}

float max_value(const float* a, std::size_t n) {
  // NaN is detected with a separate accumulator instead of riding on the
  // max select (which drops a NaN that appears before the running max);
  // any NaN anywhere pins the result to the canonical quiet NaN.
  bool has_nan = false;
  float m;
  if (n < 8) {
    m = a[0];
    has_nan = a[0] != a[0];
    for (std::size_t i = 1; i < n; ++i) {
      has_nan = has_nan || a[i] != a[i];
      m = a[i] > m ? a[i] : m;
    }
  } else {
    float lanes[8];
    for (int t = 0; t < 8; ++t) {
      lanes[t] = a[t];
      has_nan = has_nan || a[t] != a[t];
    }
    std::size_t i = 8;
    for (; i + 8 <= n; i += 8)
      for (int t = 0; t < 8; ++t) {
        has_nan = has_nan || a[i + t] != a[i + t];
        lanes[t] = a[i + t] > lanes[t] ? a[i + t] : lanes[t];
      }
    m = fold_max8(lanes);
    for (; i < n; ++i) {
      has_nan = has_nan || a[i] != a[i];
      m = a[i] > m ? a[i] : m;
    }
  }
  return has_nan ? canonical_nan() : m;
}

void axpy(float* y, float a, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void acc(float* y, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void add(float* out, const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void mul(float* out, const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void scale(float* out, const float* a, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void div_inplace(float* y, float z, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] /= z;
}

void adam_update(float* p, float* m, float* v, const float* g, std::size_t n,
                 float beta1, float beta2, float lr, float bias_c1,
                 float bias_c2, float eps) {
  for (std::size_t i = 0; i < n; ++i) {
    const float gi = g[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0f - beta2) * (gi * gi);
    const float mhat = m[i] / bias_c1;
    const float vhat = v[i] / bias_c2;
    p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

/// Strided (leading-dimension) matmul: an [m,n] tile of the output with
/// row stride ldo, fed by an A tile with row stride lda and a B tile with
/// row stride ldb. The full matmul is matmul_ld with lda=k, ldb=n|k,
/// ldo=n.
void matmul_ld(const float* a, int lda, const float* b, int ldb, float* out,
               int ldo, int m, int k, int n, bool transpose_b) {
  if (!transpose_b) {
    // out[i,j] is a chain over l ascending; the axpy form streams whole
    // rows of B and lets the compiler vectorize across j without touching
    // any per-element order.
    for (int i = 0; i < m; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * lda;
      float* orow = out + static_cast<std::size_t>(i) * ldo;
      for (int l = 0; l < k; ++l)
        axpy(orow, arow[l], b + static_cast<std::size_t>(l) * ldb, n);
    }
  } else {
    for (int i = 0; i < m; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * lda;
      float* orow = out + static_cast<std::size_t>(i) * ldo;
      for (int j = 0; j < n; ++j)
        orow[j] += dot(arow, b + static_cast<std::size_t>(j) * ldb, k);
    }
  }
}

/// Strided Aᵀ·B: out is a [k,n] tile (row stride ldo) of Aᵀ·B where A has
/// row stride lda ([m,k] overall; `a` points at the tile's first A
/// column) and B row stride ldb. Each out element accumulates over the
/// shared row index i ascending — the dB order the autograd loop pinned
/// in PR 5.
void matmul_ta_ld(const float* a, int lda, const float* b, int ldb, float* out,
                  int ldo, int m, int k, int n) {
  for (int l = 0; l < k; ++l) {
    float* orow = out + static_cast<std::size_t>(l) * ldo;
    for (int j = 0; j < n; ++j) {
      float o = orow[j];
      for (int i = 0; i < m; ++i)
        o += a[static_cast<std::size_t>(i) * lda + l] *
             b[static_cast<std::size_t>(i) * ldb + j];
      orow[j] = o;
    }
  }
}

void matmul_tree(const float* a, int lda, const float* b, int ldb, float* out,
                 int ldo, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * lda;
    float* orow = out + static_cast<std::size_t>(i) * ldo;
    for (int j = 0; j < n; ++j)
      orow[j] += dot_strided(arow, b + j, static_cast<std::size_t>(ldb), k);
  }
}

}  // namespace
}  // namespace scalar

// --- Public entry points ------------------------------------------------

#if defined(CLO_KERNEL_AVX2)
#define CLO_KERNEL_DISPATCH(call)                        \
  if (current_target() != Target::kScalar) return avx2::call; \
  return scalar::call
#else
#define CLO_KERNEL_DISPATCH(call) return scalar::call
#endif

float dot(const float* a, const float* b, std::size_t n) {
  CLO_KERNEL_DISPATCH(dot(a, b, n));
}

float sqdist(const float* a, const float* b, std::size_t n) {
  CLO_KERNEL_DISPATCH(sqdist(a, b, n));
}

float sum(const float* a, std::size_t n) { CLO_KERNEL_DISPATCH(sum(a, n)); }

float max_value(const float* a, std::size_t n) {
  CLO_KERNEL_DISPATCH(max_value(a, n));
}

void axpy(float* y, float a, const float* x, std::size_t n) {
  CLO_KERNEL_DISPATCH(axpy(y, a, x, n));
}

void acc(float* y, const float* x, std::size_t n) {
  CLO_KERNEL_DISPATCH(acc(y, x, n));
}

void add(float* out, const float* a, const float* b, std::size_t n) {
  CLO_KERNEL_DISPATCH(add(out, a, b, n));
}

void mul(float* out, const float* a, const float* b, std::size_t n) {
  CLO_KERNEL_DISPATCH(mul(out, a, b, n));
}

void scale(float* out, const float* a, float s, std::size_t n) {
  CLO_KERNEL_DISPATCH(scale(out, a, s, n));
}

void div_inplace(float* y, float z, std::size_t n) {
  CLO_KERNEL_DISPATCH(div_inplace(y, z, n));
}

void adam_update(float* p, float* m, float* v, const float* g, std::size_t n,
                 float beta1, float beta2, float lr, float bias_c1,
                 float bias_c2, float eps) {
  CLO_KERNEL_DISPATCH(
      adam_update(p, m, v, g, n, beta1, beta2, lr, bias_c1, bias_c2, eps));
}

void matmul(const float* a, const float* b, float* out, int m, int k, int n,
            bool transpose_b) {
  CLO_KERNEL_DISPATCH(
      matmul_ld(a, k, b, transpose_b ? k : n, out, n, m, k, n, transpose_b));
}

void matmul_ta(const float* a, const float* b, float* out, int m, int k,
               int n) {
  CLO_KERNEL_DISPATCH(matmul_ta_ld(a, k, b, n, out, n, m, k, n));
}

void matmul_tree(const float* a, int lda, const float* b, int ldb, float* out,
                 int ldo, int m, int k, int n) {
  CLO_KERNEL_DISPATCH(matmul_tree(a, lda, b, ldb, out, ldo, m, k, n));
}

#undef CLO_KERNEL_DISPATCH

}  // namespace clo::nn::kernel
