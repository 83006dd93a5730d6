// clo::nn::kernel acceptance tests: the determinism contract (bitwise
// parity for every kernel across every dispatch target and every
// awkward size; model-level forward parity; run-to-run stability),
// numerical accuracy against double-precision references, the 64-byte
// Tensor storage alignment the kernels assume for performance, the pinned
// NaN semantics of max_value, and the NaN-propagation regression the old
// zero-skip fast paths used to mask.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "clo/models/diffusion.hpp"
#include "clo/nn/kernel.hpp"
#include "clo/nn/modules.hpp"
#include "clo/nn/ops.hpp"
#include "clo/nn/optim.hpp"
#include "clo/nn/tensor.hpp"
#include "clo/util/aligned.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;
namespace kernel = nn::kernel;
using util::AlignedFloats;

/// Every test leaves the dispatch switch back at its hardware default.
class KernelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    kernel::set_target(kernel::best_supported_target());
  }

  /// Skip (not silently pass) parity tests on hosts without a vector TU.
  static bool RequireBothTargets() {
    if (!kernel::target_supported(kernel::Target::kAvx2)) {
      return false;
    }
    return true;
  }

  /// Every target this binary can actually run here (scalar always).
  static std::vector<kernel::Target> SupportedTargets() {
    std::vector<kernel::Target> targets = {kernel::Target::kScalar};
    if (kernel::target_supported(kernel::Target::kAvx2)) {
      targets.push_back(kernel::Target::kAvx2);
    }
    return targets;
  }
};

AlignedFloats random_buf(std::size_t n, Rng& rng) {
  AlignedFloats v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

bool bitwise_equal(const AlignedFloats& a, const AlignedFloats& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Sizes that exercise the vector body, the tail, and both at once.
const std::size_t kSizes[] = {1, 7, 8, 9, 31, 64, 160, 1000};

TEST_F(KernelTest, ReductionsAreBitwiseIdenticalAcrossTargets) {
  if (!RequireBothTargets()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(1);
  for (std::size_t n : kSizes) {
    const auto a = random_buf(n, rng);
    const auto b = random_buf(n, rng);
    kernel::set_target(kernel::Target::kScalar);
    const float dot_s = kernel::dot(a.data(), b.data(), n);
    const float sq_s = kernel::sqdist(a.data(), b.data(), n);
    const float sum_s = kernel::sum(a.data(), n);
    const float max_s = kernel::max_value(a.data(), n);
    kernel::set_target(kernel::best_supported_target());
    // Bitwise, not near: the contract is exact equality.
    EXPECT_EQ(dot_s, kernel::dot(a.data(), b.data(), n)) << "dot n=" << n;
    EXPECT_EQ(sq_s, kernel::sqdist(a.data(), b.data(), n)) << "sqdist n=" << n;
    EXPECT_EQ(sum_s, kernel::sum(a.data(), n)) << "sum n=" << n;
    EXPECT_EQ(max_s, kernel::max_value(a.data(), n)) << "max n=" << n;
  }
}

TEST_F(KernelTest, ElementwiseAreBitwiseIdenticalAcrossTargets) {
  if (!RequireBothTargets()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(2);
  for (std::size_t n : kSizes) {
    const auto a = random_buf(n, rng);
    const auto b = random_buf(n, rng);
    const auto y0 = random_buf(n, rng);
    AlignedFloats out_s(n), out_v(n);
    AlignedFloats y_s = y0, y_v = y0;

    kernel::set_target(kernel::Target::kScalar);
    kernel::axpy(y_s.data(), 0.37f, a.data(), n);
    kernel::acc(y_s.data(), b.data(), n);
    kernel::add(out_s.data(), a.data(), b.data(), n);
    kernel::mul(out_s.data(), out_s.data(), a.data(), n);
    kernel::scale(out_s.data(), out_s.data(), -1.25f, n);
    kernel::div_inplace(out_s.data(), 3.0f, n);

    kernel::set_target(kernel::best_supported_target());
    kernel::axpy(y_v.data(), 0.37f, a.data(), n);
    kernel::acc(y_v.data(), b.data(), n);
    kernel::add(out_v.data(), a.data(), b.data(), n);
    kernel::mul(out_v.data(), out_v.data(), a.data(), n);
    kernel::scale(out_v.data(), out_v.data(), -1.25f, n);
    kernel::div_inplace(out_v.data(), 3.0f, n);

    EXPECT_TRUE(bitwise_equal(y_s, y_v)) << "axpy/acc n=" << n;
    EXPECT_TRUE(bitwise_equal(out_s, out_v)) << "elementwise chain n=" << n;
  }
}

TEST_F(KernelTest, AdamUpdateIsBitwiseIdenticalAcrossTargets) {
  if (!RequireBothTargets()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(3);
  for (std::size_t n : kSizes) {
    const auto g = random_buf(n, rng);
    const auto p0 = random_buf(n, rng);
    const auto m0 = random_buf(n, rng);
    AlignedFloats v0(n);
    for (auto& x : v0) x = std::abs(static_cast<float>(rng.next_gaussian()));

    AlignedFloats p_s = p0, m_s = m0, v_s = v0;
    AlignedFloats p_v = p0, m_v = m0, v_v = v0;
    kernel::set_target(kernel::Target::kScalar);
    kernel::adam_update(p_s.data(), m_s.data(), v_s.data(), g.data(), n, 0.9f,
                        0.999f, 1e-3f, 0.19f, 0.002996f, 1e-8f);
    kernel::set_target(kernel::best_supported_target());
    kernel::adam_update(p_v.data(), m_v.data(), v_v.data(), g.data(), n, 0.9f,
                        0.999f, 1e-3f, 0.19f, 0.002996f, 1e-8f);
    EXPECT_TRUE(bitwise_equal(p_s, p_v)) << "adam p n=" << n;
    EXPECT_TRUE(bitwise_equal(m_s, m_v)) << "adam m n=" << n;
    EXPECT_TRUE(bitwise_equal(v_s, v_v)) << "adam v n=" << n;
  }
}

TEST_F(KernelTest, MatmulIsBitwiseIdenticalAcrossTargets) {
  if (!RequireBothTargets()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(4);
  const int shapes[][3] = {
      {1, 1, 1},
      {3, 5, 7},
      {16, 8, 128},
      {16, 32, 32},
      {8, 24, 20},
      {33, 17, 65},
      {64, 64, 64},
      {33, 47, 129},   // ragged in every dimension
      {30, 160, 256},  // paper-scale batched restarts ([R, L*d] = [30, 160])
      {16, 3, 300},    // wide and shallow
      {257, 19, 17},   // tall and narrow
  };
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    for (bool tb : {false, true}) {
      const auto a = random_buf(static_cast<std::size_t>(m) * k, rng);
      const auto b = random_buf(static_cast<std::size_t>(k) * n, rng);
      const auto o0 = random_buf(static_cast<std::size_t>(m) * n, rng);
      AlignedFloats o_s = o0, o_v = o0;
      kernel::set_target(kernel::Target::kScalar);
      kernel::matmul(a.data(), b.data(), o_s.data(), m, k, n, tb);
      kernel::set_target(kernel::best_supported_target());
      kernel::matmul(a.data(), b.data(), o_v.data(), m, k, n, tb);
      EXPECT_TRUE(bitwise_equal(o_s, o_v))
          << m << "x" << k << "x" << n << " tb=" << tb;
    }
  }
}

TEST_F(KernelTest, MatmulMatchesDoubleReference) {
  // Accuracy is relative to an fp64 reference, not to any historical float
  // summation order (see the tolerance note in kernel.hpp).
  Rng rng(5);
  const int m = 17, k = 160, n = 23;
  const auto a = random_buf(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_buf(static_cast<std::size_t>(k) * n, rng);
  for (bool tb : {false, true}) {
    AlignedFloats out(static_cast<std::size_t>(m) * n, 0.0f);
    kernel::matmul(a.data(), b.data(), out.data(), m, k, n, tb);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double ref = 0.0;
        for (int l = 0; l < k; ++l) {
          const float bv = tb ? b[static_cast<std::size_t>(j) * k + l]
                              : b[static_cast<std::size_t>(l) * n + j];
          ref += static_cast<double>(a[static_cast<std::size_t>(i) * k + l]) *
                 bv;
        }
        EXPECT_NEAR(out[static_cast<std::size_t>(i) * n + j], ref,
                    1e-4 * (1.0 + std::abs(ref)))
            << "(" << i << "," << j << ") tb=" << tb;
      }
    }
  }
}

TEST_F(KernelTest, ReductionsMatchDoubleReference) {
  Rng rng(6);
  for (std::size_t n : kSizes) {
    const auto a = random_buf(n, rng);
    const auto b = random_buf(n, rng);
    double dot_ref = 0.0, sq_ref = 0.0, sum_ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot_ref += static_cast<double>(a[i]) * b[i];
      const double d = static_cast<double>(a[i]) - b[i];
      sq_ref += d * d;
      sum_ref += a[i];
    }
    const double tol = 1e-5 * (1.0 + static_cast<double>(n));
    EXPECT_NEAR(kernel::dot(a.data(), b.data(), n), dot_ref, tol);
    EXPECT_NEAR(kernel::sqdist(a.data(), b.data(), n), sq_ref, tol);
    EXPECT_NEAR(kernel::sum(a.data(), n), sum_ref, tol);
  }
}

TEST_F(KernelTest, MaxValueHandlesSmallAndNegativeInputs) {
  const AlignedFloats a = {-5.0f, -3.0f, -8.0f};
  EXPECT_EQ(kernel::max_value(a.data(), 3), -3.0f);
  EXPECT_EQ(kernel::max_value(a.data(), 1), -5.0f);
  AlignedFloats big(100, -1.0f);
  big[77] = 42.0f;
  EXPECT_EQ(kernel::max_value(big.data(), big.size()), 42.0f);
}

// Regression for the pinned NaN semantics: the old scan `x > m ? x : m`
// silently discarded a NaN whenever later elements compared false against
// the running max (every `NaN > m` is false), so a NaN at the head or
// middle vanished while one at the tail survived — contradicting the
// header's "NaN elements propagate". The contract is now: ANY NaN element
// makes max_value return the canonical quiet NaN, bit-identically on
// every target, no matter where the NaN sits.
TEST_F(KernelTest, MaxValuePropagatesNaNFromAnyPosition) {
  const float nan = std::nanf("");
  const float canonical = std::numeric_limits<float>::quiet_NaN();
  std::uint32_t canonical_bits;
  std::memcpy(&canonical_bits, &canonical, sizeof(canonical_bits));
  Rng rng(11);
  // Sizes hitting the small-n scalar path, the vector body, and the tail.
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                        std::size_t{9}, std::size_t{31}, std::size_t{64},
                        std::size_t{160}, std::size_t{1000}}) {
    for (std::size_t pos : {std::size_t{0}, n / 2, n - 1}) {
      auto a = random_buf(n, rng);
      a[pos] = nan;
      for (kernel::Target t : SupportedTargets()) {
        kernel::set_target(t);
        const float got = kernel::max_value(a.data(), n);
        std::uint32_t got_bits;
        std::memcpy(&got_bits, &got, sizeof(got_bits));
        EXPECT_EQ(got_bits, canonical_bits)
            << "n=" << n << " pos=" << pos
            << " target=" << kernel::target_name(t);
      }
      kernel::set_target(kernel::best_supported_target());
    }
  }
  // NaN-free inputs still return the plain maximum on every target.
  auto clean = random_buf(100, rng);
  clean[41] = 1e9f;
  for (kernel::Target t : SupportedTargets()) {
    kernel::set_target(t);
    EXPECT_EQ(kernel::max_value(clean.data(), clean.size()), 1e9f)
        << kernel::target_name(t);
  }
}

TEST_F(KernelTest, TensorStorageIs64ByteAligned) {
  for (int n : {1, 3, 17, 1000}) {
    auto t = nn::Tensor::zeros({n}, /*requires_grad=*/true);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data().data()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.grad().data()) % 64, 0u);
  }
}

// Regression for the old `if (av == 0.0f) continue;` fast paths in matmul:
// a NaN parameter multiplied by a zero activation must poison the loss
// (0 * NaN = NaN), not be silently skipped — that's what lets training
// divergence surface as a non-finite loss instead of corrupting silently.
TEST_F(KernelTest, NaNParameterSurfacesAsNonFiniteLoss) {
  const float nan = std::nanf("");
  for (bool tb : {false, true}) {
    auto x = nn::Tensor::from_data({1, 2}, {0.0f, 0.0f});
    auto w = nn::Tensor::from_data({2, 2}, {nan, 0.0f, 0.0f, 1.0f},
                                   /*requires_grad=*/true);
    auto y = nn::matmul(x, w, tb);
    auto loss = nn::mse_loss(y, nn::Tensor::zeros({1, 2}));
    EXPECT_FALSE(std::isfinite(loss.item())) << "tb=" << tb;
  }
}

TEST_F(KernelTest, NaNParameterPoisonsBackwardToo) {
  const float nan = std::nanf("");
  auto x = nn::Tensor::from_data({1, 2}, {0.0f, 0.0f}, /*requires_grad=*/true);
  auto w = nn::Tensor::from_data({2, 2}, {nan, 0.0f, 0.0f, 1.0f},
                                 /*requires_grad=*/true);
  auto loss = nn::sum_all(nn::matmul(x, w));
  nn::backward(loss);
  // dL/dx = W^T · 1 contains the NaN column.
  bool saw_nan = false;
  for (float g : x.grad()) saw_nan = saw_nan || std::isnan(g);
  EXPECT_TRUE(saw_nan);
}

TEST_F(KernelTest, UNetForwardIsBitwiseIdenticalAcrossTargets) {
  if (!RequireBothTargets()) GTEST_SKIP() << "no AVX2 on this host";
  models::DiffusionConfig cfg;
  cfg.seq_len = 8;
  cfg.embed_dim = 4;
  cfg.channels = 8;
  cfg.time_dim = 8;
  Rng rng(7);
  models::DiffusionUNet unet(cfg, rng);
  Rng xrng(8);
  const int B = 3;
  std::vector<float> xdata(static_cast<std::size_t>(B) * cfg.embed_dim *
                           cfg.seq_len);
  for (auto& v : xdata) v = static_cast<float>(xrng.next_gaussian());
  const std::vector<int> t = {0, 3, 7};

  auto run = [&] {
    auto x = nn::Tensor::from_data({B, cfg.embed_dim, cfg.seq_len}, xdata);
    return unet.forward(x, t);
  };
  kernel::set_target(kernel::best_supported_target());
  const auto out_simd = run().data();
  kernel::set_target(kernel::Target::kScalar);
  const auto out_scalar = run().data();
  EXPECT_TRUE(bitwise_equal(out_simd, out_scalar));
}

TEST_F(KernelTest, TrainingStepIsBitwiseIdenticalAcrossTargets) {
  if (!RequireBothTargets()) GTEST_SKIP() << "no AVX2 on this host";
  // One full forward/backward/Adam step on an MLP, run once per target
  // from identical initial weights: every parameter must match bitwise.
  auto run = [](bool simd) {
    kernel::set_target(simd ? kernel::best_supported_target()
                           : kernel::Target::kScalar);
    Rng rng(9);
    nn::Mlp mlp(6, 16, 2, rng);
    nn::Adam opt(mlp.parameters(), 1e-2f);
    Rng drng(10);
    std::vector<float> xd(4 * 6), yd(4 * 2);
    for (auto& v : xd) v = static_cast<float>(drng.next_gaussian());
    for (auto& v : yd) v = static_cast<float>(drng.next_gaussian());
    for (int step = 0; step < 3; ++step) {
      auto pred = mlp.forward(nn::Tensor::from_data({4, 6}, xd));
      auto loss = nn::mse_loss(pred, nn::Tensor::from_data({4, 2}, yd));
      opt.zero_grad();
      nn::backward(loss);
      opt.step();
    }
    std::vector<nn::FloatBuf> out;
    for (auto& p : mlp.parameters()) out.push_back(p.data());
    return out;
  };
  const auto simd_params = run(true);
  const auto scalar_params = run(false);
  ASSERT_EQ(simd_params.size(), scalar_params.size());
  for (std::size_t i = 0; i < simd_params.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(simd_params[i], scalar_params[i])) << "p" << i;
  }
}

TEST_F(KernelTest, DispatchStateRoundTrips) {
  EXPECT_EQ(kernel::current_target(), kernel::best_supported_target());
  kernel::set_target(kernel::Target::kScalar);
  EXPECT_EQ(kernel::current_target(), kernel::Target::kScalar);
  EXPECT_STREQ(kernel::active_target(), "scalar");
  kernel::set_target(kernel::best_supported_target());
  EXPECT_EQ(kernel::current_target(), kernel::best_supported_target());
  EXPECT_STREQ(kernel::active_target(),
               kernel::target_name(kernel::best_supported_target()));

  // Forcing each supported target sticks; unsupported requests clamp down.
  for (kernel::Target t : SupportedTargets()) {
    EXPECT_EQ(kernel::set_target(t), t);
    EXPECT_EQ(kernel::current_target(), t);
  }
  const kernel::Target clamped = kernel::set_target(kernel::Target::kAvx2);
  EXPECT_TRUE(kernel::target_supported(clamped));

  // parse_target round-trips every name plus "auto"; rejects junk.
  kernel::Target parsed;
  ASSERT_TRUE(kernel::parse_target("scalar", &parsed));
  EXPECT_EQ(parsed, kernel::Target::kScalar);
  ASSERT_TRUE(kernel::parse_target("avx2", &parsed));
  EXPECT_EQ(parsed, kernel::Target::kAvx2);
  ASSERT_TRUE(kernel::parse_target("auto", &parsed));
  EXPECT_EQ(parsed, kernel::best_supported_target());
  EXPECT_FALSE(kernel::parse_target("sse9", &parsed));
  EXPECT_FALSE(kernel::parse_target("avx512", &parsed));
}

TEST_F(KernelTest, KernelsTolerateUnalignedTensorInteriorSlices) {
  // Tensor interiors are sliced at arbitrary element offsets (batch rows,
  // channel planes), so every kernel must accept pointers off the 64-byte
  // storage alignment — and still match the aligned bytes exactly.
  Rng rng(15);
  const int m = 33, k = 47, n = 129;
  const auto backing_a =
      random_buf(static_cast<std::size_t>(m) * k + 1, rng);
  const auto backing_b =
      random_buf(static_cast<std::size_t>(k) * n + 1, rng);
  const float* a = backing_a.data() + 1;  // deliberately 4-byte-misaligned
  const float* b = backing_b.data() + 1;
  AlignedFloats aligned_a(a, a + static_cast<std::size_t>(m) * k);
  AlignedFloats aligned_b(b, b + static_cast<std::size_t>(k) * n);

  for (kernel::Target t : SupportedTargets()) {
    kernel::set_target(t);
    AlignedFloats out_aligned(static_cast<std::size_t>(m) * n, 0.0f);
    kernel::matmul(aligned_a.data(), aligned_b.data(), out_aligned.data(), m,
                   k, n, false);
    AlignedFloats out(static_cast<std::size_t>(m) * n, 0.0f);
    kernel::matmul(a, b, out.data(), m, k, n, false);
    EXPECT_TRUE(bitwise_equal(out_aligned, out))
        << "target=" << kernel::target_name(t);
    EXPECT_EQ(kernel::dot(a, b, 100),
              kernel::dot(aligned_a.data(), aligned_b.data(), 100))
        << kernel::target_name(t);
  }
  kernel::set_target(kernel::best_supported_target());
}

// matmul_ta must reproduce, bit for bit, the accumulation order of the
// loop it replaced in the autograd backward pass (per out element: a
// mul+add chain over the shared row index i ascending), and stay close to
// an fp64 reference.
TEST_F(KernelTest, MatmulTaMatchesLegacyLoopBitwiseAndDoubleReference) {
  Rng rng(16);
  const int m = 21, k = 18, n = 37;
  const auto a = random_buf(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_buf(static_cast<std::size_t>(m) * n, rng);
  const auto o0 = random_buf(static_cast<std::size_t>(k) * n, rng);

  // The pre-PR-10 backward loop: for each sample i, axpy gy-row into every
  // dB row — per element, adds in i-ascending order.
  AlignedFloats legacy = o0;
  for (int i = 0; i < m; ++i) {
    for (int l = 0; l < k; ++l) {
      const float av = a[static_cast<std::size_t>(i) * k + l];
      for (int j = 0; j < n; ++j) {
        legacy[static_cast<std::size_t>(l) * n + j] +=
            av * b[static_cast<std::size_t>(i) * n + j];
      }
    }
  }

  for (kernel::Target t : SupportedTargets()) {
    kernel::set_target(t);
    AlignedFloats out = o0;
    kernel::matmul_ta(a.data(), b.data(), out.data(), m, k, n);
    EXPECT_TRUE(bitwise_equal(legacy, out)) << kernel::target_name(t);
  }
  kernel::set_target(kernel::best_supported_target());

  AlignedFloats out(static_cast<std::size_t>(k) * n, 0.0f);
  kernel::matmul_ta(a.data(), b.data(), out.data(), m, k, n);
  for (int l = 0; l < k; ++l) {
    for (int j = 0; j < n; ++j) {
      double ref = 0.0;
      for (int i = 0; i < m; ++i) {
        ref += static_cast<double>(a[static_cast<std::size_t>(i) * k + l]) *
               b[static_cast<std::size_t>(i) * n + j];
      }
      EXPECT_NEAR(out[static_cast<std::size_t>(l) * n + j], ref,
                  1e-4 * (1.0 + std::abs(ref)))
          << "(" << l << "," << j << ")";
    }
  }
}

// matmul_tree: every out element gets exactly one dot() of its A row and
// its B column added to it. Covered: k all-tail (< 8) and with a partial
// tail, column counts that leave the vector path's 8-wide blocks partial,
// and row strides larger than the tile on every operand.
TEST_F(KernelTest, MatmulTreeEqualsPerElementDotBitwise) {
  Rng rng(17);
  const int m = 3;
  for (kernel::Target t : SupportedTargets()) {
    kernel::set_target(t);
    for (int k = 0; k <= 40; ++k) {
      for (int n : {1, 7, 8, 9, 13, 17, 33}) {
        const int lda = k + 3, ldb = n + 5, ldo = n + 2;
        const auto a = random_buf(static_cast<std::size_t>(m) * lda, rng);
        const auto b = random_buf(static_cast<std::size_t>(k) * ldb + 1, rng);
        const auto o0 = random_buf(static_cast<std::size_t>(m) * ldo, rng);
        AlignedFloats want = o0;
        AlignedFloats col(static_cast<std::size_t>(k) + 1);
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            for (int l = 0; l < k; ++l)
              col[l] = b[static_cast<std::size_t>(l) * ldb + j];
            want[static_cast<std::size_t>(i) * ldo + j] += kernel::dot(
                a.data() + static_cast<std::size_t>(i) * lda, col.data(), k);
          }
        }
        AlignedFloats got = o0;
        kernel::matmul_tree(a.data(), lda, b.data(), ldb, got.data(), ldo, m,
                            k, n);
        EXPECT_TRUE(bitwise_equal(want, got))
            << kernel::target_name(t) << " k=" << k << " n=" << n;
      }
    }
  }
  kernel::set_target(kernel::best_supported_target());
}

}  // namespace
