// AVX2 kernels. This TU is compiled with -mavx2 and -ffp-contract=off and
// is only ever entered when cpuid reports AVX2+FMA (kernel.cpp gates the
// dispatch). Every kernel reproduces the scalar reference's operation
// order exactly — reductions store the 8-lane accumulator and reuse the
// shared reduce8 tree, elementwise ops use mul+add (never vfmadd, which
// rounds once instead of twice), and divisions/square roots use the
// correctly-rounded vdivps/vsqrtps — so scalar and AVX2 results are
// bitwise identical (asserted by test_kernels).

#ifdef CLO_KERNEL_AVX2

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "clo/nn/kernel_detail.hpp"

namespace clo::nn::kernel::avx2 {

using detail::dot_strided;
using detail::fold_max8;
using detail::reduce8;

float dot(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i] * b[i];
  return reduce8(lanes, tail);
}

float sqdist(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float tail = 0.0f;
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    tail += d * d;
  }
  return reduce8(lanes, tail);
}

float sum(const float* a, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) acc = _mm256_add_ps(acc, _mm256_loadu_ps(a + i));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i];
  return reduce8(lanes, tail);
}

float max_value(const float* a, std::size_t n) {
  // NaN is tracked in a separate unordered-compare accumulator (the max
  // select itself drops NaN); any NaN anywhere pins the result to the
  // canonical quiet NaN, same as the scalar path.
  if (n < 8) {
    float m = a[0];
    bool has_nan = a[0] != a[0];
    for (std::size_t i = 1; i < n; ++i) {
      has_nan = has_nan || a[i] != a[i];
      m = a[i] > m ? a[i] : m;
    }
    return has_nan ? detail::canonical_nan() : m;
  }
  // _mm256_max_ps(x, acc) = x > acc ? x : acc (acc on unordered) — the
  // same select the scalar lanes use.
  __m256 acc = _mm256_loadu_ps(a);
  __m256 nan_mask = _mm256_cmp_ps(acc, acc, _CMP_UNORD_Q);
  std::size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(a + i);
    nan_mask = _mm256_or_ps(nan_mask, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
    acc = _mm256_max_ps(x, acc);
  }
  bool has_nan = _mm256_movemask_ps(nan_mask) != 0;
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float m = fold_max8(lanes);
  for (; i < n; ++i) {
    has_nan = has_nan || a[i] != a[i];
    m = a[i] > m ? a[i] : m;
  }
  return has_nan ? detail::canonical_nan() : m;
}

void axpy(float* y, float a, const float* x, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                             _mm256_mul_ps(va, _mm256_loadu_ps(x + i))));
  for (; i < n; ++i) y[i] += a * x[i];
}

void acc(float* y, const float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  for (; i < n; ++i) y[i] += x[i];
}

void add(float* out, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void mul(float* out, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void scale(float* out, const float* a, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  for (; i < n; ++i) out[i] = a[i] * s;
}

void div_inplace(float* y, float z, std::size_t n) {
  const __m256 vz = _mm256_set1_ps(z);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, _mm256_div_ps(_mm256_loadu_ps(y + i), vz));
  for (; i < n; ++i) y[i] /= z;
}

void adam_update(float* p, float* m, float* v, const float* g, std::size_t n,
                 float beta1, float beta2, float lr, float bias_c1,
                 float bias_c2, float eps) {
  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vb1c = _mm256_set1_ps(1.0f - beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vb2c = _mm256_set1_ps(1.0f - beta2);
  const __m256 vbc1 = _mm256_set1_ps(bias_c1);
  const __m256 vbc2 = _mm256_set1_ps(bias_c2);
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 veps = _mm256_set1_ps(eps);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gi = _mm256_loadu_ps(g + i);
    const __m256 vm = _mm256_add_ps(_mm256_mul_ps(vb1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(vb1c, gi));
    const __m256 vv =
        _mm256_add_ps(_mm256_mul_ps(vb2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(vb2c, _mm256_mul_ps(gi, gi)));
    _mm256_storeu_ps(m + i, vm);
    _mm256_storeu_ps(v + i, vv);
    const __m256 mhat = _mm256_div_ps(vm, vbc1);
    const __m256 vhat = _mm256_div_ps(vv, vbc2);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), veps);
    _mm256_storeu_ps(
        p + i, _mm256_sub_ps(_mm256_loadu_ps(p + i),
                             _mm256_div_ps(_mm256_mul_ps(vlr, mhat), denom)));
  }
  for (; i < n; ++i) {
    const float gi = g[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0f - beta2) * (gi * gi);
    const float mhat = m[i] / bias_c1;
    const float vhat = v[i] / bias_c2;
    p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

namespace {

// out[i,j] += dot(A row i, B row j) for a block of four B rows sharing one
// pass over the A row. Each accumulator is its own 8-lane chain, so every
// output is the exact 8-lane-tree dot().
inline void dot4(const float* arow, const float* b0, const float* b1,
                 const float* b2, const float* b3, int k, float* o) {
  __m256 c0 = _mm256_setzero_ps();
  __m256 c1 = _mm256_setzero_ps();
  __m256 c2 = _mm256_setzero_ps();
  __m256 c3 = _mm256_setzero_ps();
  int l = 0;
  for (; l + 8 <= k; l += 8) {
    const __m256 va = _mm256_loadu_ps(arow + l);
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, _mm256_loadu_ps(b0 + l)));
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(va, _mm256_loadu_ps(b1 + l)));
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(va, _mm256_loadu_ps(b2 + l)));
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(va, _mm256_loadu_ps(b3 + l)));
  }
  const __m256 accs[4] = {c0, c1, c2, c3};
  const float* brows[4] = {b0, b1, b2, b3};
  for (int t = 0; t < 4; ++t) {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, accs[t]);
    float tail = 0.0f;
    for (int q = l; q < k; ++q) tail += arow[q] * brows[t][q];
    o[t] += reduce8(lanes, tail);
  }
}

}  // namespace

void matmul_ld(const float* a, int lda, const float* b, int ldb, float* out,
               int ldo, int m, int k, int n, bool transpose_b) {
  if (!transpose_b) {
    // Column-blocked axpy form: 4 ymm accumulators cover 32 output
    // columns; the chain over l for each output element is untouched.
    for (int i = 0; i < m; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * lda;
      float* orow = out + static_cast<std::size_t>(i) * ldo;
      int j = 0;
      for (; j + 32 <= n; j += 32) {
        __m256 c0 = _mm256_loadu_ps(orow + j);
        __m256 c1 = _mm256_loadu_ps(orow + j + 8);
        __m256 c2 = _mm256_loadu_ps(orow + j + 16);
        __m256 c3 = _mm256_loadu_ps(orow + j + 24);
        for (int l = 0; l < k; ++l) {
          const __m256 va = _mm256_set1_ps(arow[l]);
          const float* brow = b + static_cast<std::size_t>(l) * ldb + j;
          c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
          c1 = _mm256_add_ps(c1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
          c2 = _mm256_add_ps(c2, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 16)));
          c3 = _mm256_add_ps(c3, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 24)));
        }
        _mm256_storeu_ps(orow + j, c0);
        _mm256_storeu_ps(orow + j + 8, c1);
        _mm256_storeu_ps(orow + j + 16, c2);
        _mm256_storeu_ps(orow + j + 24, c3);
      }
      for (; j + 8 <= n; j += 8) {
        __m256 c0 = _mm256_loadu_ps(orow + j);
        for (int l = 0; l < k; ++l) {
          const __m256 va = _mm256_set1_ps(arow[l]);
          c0 = _mm256_add_ps(
              c0, _mm256_mul_ps(
                      va, _mm256_loadu_ps(b + static_cast<std::size_t>(l) * ldb +
                                          j)));
        }
        _mm256_storeu_ps(orow + j, c0);
      }
      for (; j < n; ++j) {
        float o = orow[j];
        for (int l = 0; l < k; ++l)
          o += arow[l] * b[static_cast<std::size_t>(l) * ldb + j];
        orow[j] = o;
      }
    }
  } else {
    for (int i = 0; i < m; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * lda;
      float* orow = out + static_cast<std::size_t>(i) * ldo;
      int j = 0;
      for (; j + 4 <= n; j += 4) {
        const float* brow = b + static_cast<std::size_t>(j) * ldb;
        dot4(arow, brow, brow + ldb, brow + 2 * static_cast<std::size_t>(ldb),
             brow + 3 * static_cast<std::size_t>(ldb), k, orow + j);
      }
      for (; j < n; ++j)
        orow[j] += dot(arow, b + static_cast<std::size_t>(j) * ldb, k);
    }
  }
}

void matmul_ta_ld(const float* a, int lda, const float* b, int ldb, float* out,
                  int ldo, int m, int k, int n) {
  // out[l,j] += sum_i a[i,l] * b[i,j], chain over i ascending. One out row
  // at a time: per 32-column block the i-chains live in 4 ymm accumulators
  // (each element's chain untouched), broadcasting A's column l down the
  // rows.
  for (int l = 0; l < k; ++l) {
    const float* acol = a + l;
    float* orow = out + static_cast<std::size_t>(l) * ldo;
    int j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 c0 = _mm256_loadu_ps(orow + j);
      __m256 c1 = _mm256_loadu_ps(orow + j + 8);
      __m256 c2 = _mm256_loadu_ps(orow + j + 16);
      __m256 c3 = _mm256_loadu_ps(orow + j + 24);
      for (int i = 0; i < m; ++i) {
        const __m256 va =
            _mm256_set1_ps(acol[static_cast<std::size_t>(i) * lda]);
        const float* brow = b + static_cast<std::size_t>(i) * ldb + j;
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 16)));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 24)));
      }
      _mm256_storeu_ps(orow + j, c0);
      _mm256_storeu_ps(orow + j + 8, c1);
      _mm256_storeu_ps(orow + j + 16, c2);
      _mm256_storeu_ps(orow + j + 24, c3);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 c0 = _mm256_loadu_ps(orow + j);
      for (int i = 0; i < m; ++i) {
        const __m256 va =
            _mm256_set1_ps(acol[static_cast<std::size_t>(i) * lda]);
        c0 = _mm256_add_ps(
            c0, _mm256_mul_ps(
                    va, _mm256_loadu_ps(b + static_cast<std::size_t>(i) * ldb +
                                        j)));
      }
      _mm256_storeu_ps(orow + j, c0);
    }
    for (; j < n; ++j) {
      float o = orow[j];
      for (int i = 0; i < m; ++i)
        o += acol[static_cast<std::size_t>(i) * lda] *
             b[static_cast<std::size_t>(i) * ldb + j];
      orow[j] = o;
    }
  }
}

void matmul_tree(const float* a, int lda, const float* b, int ldb, float* out,
                 int ldo, int m, int k, int n) {
  // out[i,j] += dot(A row i, B column j), eight output columns at a time:
  // lane vector t holds lane t of dot()'s eight partial sums for each of
  // the eight columns, and the reduce8 tree folds the lane vectors
  // elementwise, so every column gets exactly dot()'s order. The lanes
  // are named locals so that they stay in registers.
  const std::size_t sb = static_cast<std::size_t>(ldb);
  const auto mac = [](__m256 acc, float av, const float* bp) {
    return _mm256_add_ps(acc,
                         _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(bp)));
  };
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * lda;
    float* orow = out + static_cast<std::size_t>(i) * ldo;
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 l0 = _mm256_setzero_ps(), l1 = l0, l2 = l0, l3 = l0, l4 = l0,
             l5 = l0, l6 = l0, l7 = l0;
      int l = 0;
      for (; l + 8 <= k; l += 8) {
        const float* al = arow + l;
        const float* bl = b + j + static_cast<std::size_t>(l) * sb;
        l0 = mac(l0, al[0], bl);
        l1 = mac(l1, al[1], bl + sb);
        l2 = mac(l2, al[2], bl + 2 * sb);
        l3 = mac(l3, al[3], bl + 3 * sb);
        l4 = mac(l4, al[4], bl + 4 * sb);
        l5 = mac(l5, al[5], bl + 5 * sb);
        l6 = mac(l6, al[6], bl + 6 * sb);
        l7 = mac(l7, al[7], bl + 7 * sb);
      }
      const __m256 s04 =
          _mm256_add_ps(_mm256_add_ps(l0, l4), _mm256_add_ps(l1, l5));
      const __m256 s26 =
          _mm256_add_ps(_mm256_add_ps(l2, l6), _mm256_add_ps(l3, l7));
      __m256 tail = _mm256_setzero_ps();
      for (; l < k; ++l)
        tail = mac(tail, arow[l], b + j + static_cast<std::size_t>(l) * sb);
      _mm256_storeu_ps(
          orow + j,
          _mm256_add_ps(_mm256_loadu_ps(orow + j),
                        _mm256_add_ps(_mm256_add_ps(s04, s26), tail)));
    }
    for (; j < n; ++j) orow[j] += dot_strided(arow, b + j, sb, k);
  }
}

}  // namespace clo::nn::kernel::avx2

#endif  // CLO_KERNEL_AVX2
