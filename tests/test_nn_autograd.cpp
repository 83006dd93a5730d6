#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "clo/nn/kernel.hpp"
#include "clo/nn/ops.hpp"
#include "clo/nn/tensor.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo::nn;
namespace kernel = clo::nn::kernel;

/// Numerical gradient check: builds the graph via `fn` (must return a
/// scalar), compares autograd gradients of `input` against central
/// differences.
void grad_check(Tensor input,
                const std::function<Tensor(const Tensor&)>& fn,
                float tolerance = 2e-2f) {
  Tensor out = fn(input);
  ASSERT_EQ(out.numel(), 1u);
  backward(out);
  const auto analytic = input.grad();
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const float saved = input.data()[i];
    input.data()[i] = saved + eps;
    const float up = fn(input).item();
    input.data()[i] = saved - eps;
    const float down = fn(input).item();
    input.data()[i] = saved;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tolerance * std::max(1.0f, std::abs(numeric)))
        << "component " << i;
  }
}

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed,
                     float scale = 1.0f) {
  clo::Rng rng(seed);
  return Tensor::randn(std::move(shape), rng, scale, true);
}

TEST(Autograd, AddSubMul) {
  const Tensor b = random_tensor({2, 3}, 7);
  grad_check(random_tensor({2, 3}, 1), [&](const Tensor& x) {
    return sum_all(mul(add(x, b), add(x, scale(b, -1.0f))));
  });
}

TEST(Autograd, ScaleNeg) {
  grad_check(random_tensor({4}, 2), [](const Tensor& x) {
    return sum_all(scale(scale(x, 2.5f), -1.0f));
  });
}

TEST(Autograd, AddBias) {
  const Tensor x = random_tensor({3, 4}, 3);
  Tensor bias = random_tensor({4}, 4);
  // Check gradient w.r.t. the bias.
  grad_check(bias, [&](const Tensor& b) { return sum_all(add_bias(x, b)); });
}

TEST(Autograd, MatmulBothSides) {
  const Tensor w = random_tensor({3, 2}, 5);
  grad_check(random_tensor({4, 3}, 6),
             [&](const Tensor& x) { return sum_all(matmul(x, w)); });
  const Tensor x2 = random_tensor({4, 3}, 8);
  grad_check(random_tensor({3, 2}, 9),
             [&](const Tensor& w2) { return sum_all(matmul(x2, w2)); });
}

TEST(Autograd, MatmulTransposeB) {
  const Tensor x = random_tensor({2, 3}, 10);
  grad_check(random_tensor({4, 3}, 11), [&](const Tensor& w) {
    return sum_all(matmul(x, w, /*transpose_b=*/true));
  });
}

TEST(Autograd, Activations) {
  grad_check(random_tensor({2, 5}, 12),
             [](const Tensor& x) { return sum_all(sigmoid(x)); });
  grad_check(random_tensor({2, 5}, 13),
             [](const Tensor& x) { return sum_all(tanh_op(x)); });
  grad_check(random_tensor({2, 5}, 14),
             [](const Tensor& x) { return sum_all(silu(x)); });
  // ReLU away from the kink.
  Tensor x = random_tensor({10}, 15);
  for (auto& v : x.data()) v = v > 0 ? v + 0.5f : v - 0.5f;
  grad_check(x, [](const Tensor& t) { return sum_all(relu(t)); });
}

TEST(Autograd, SoftmaxRows) {
  grad_check(random_tensor({3, 4}, 16), [](const Tensor& x) {
    // weighted sum of softmax outputs, nontrivial Jacobian use
    Tensor s = softmax_rows(x);
    Tensor w = Tensor::from_data({3, 4}, {1, 2, 3, 4, 4, 3, 2, 1, 0, 1, 0, 1});
    return sum_all(mul(s, w));
  });
}

TEST(Autograd, MseLoss) {
  const Tensor target = random_tensor({3, 2}, 17);
  grad_check(random_tensor({3, 2}, 18),
             [&](const Tensor& x) { return mse_loss(x, target); });
}

TEST(Autograd, MeanRowsAndReshape) {
  grad_check(random_tensor({4, 3}, 19), [](const Tensor& x) {
    return sum_all(mean_rows(reshape(x, {2, 6})));
  });
}

TEST(Autograd, ConcatSliceCols) {
  const Tensor other = random_tensor({2, 2}, 20);
  grad_check(random_tensor({2, 3}, 21), [&](const Tensor& x) {
    Tensor cat = concat_cols(x, other);
    return sum_all(mul(slice_cols(cat, 1, 4), slice_cols(cat, 0, 3)));
  });
}

TEST(Autograd, GatherRowsWithRepeats) {
  grad_check(random_tensor({4, 3}, 22), [](const Tensor& x) {
    return sum_all(gather_rows(x, {0, 2, 2, 3, 0}));
  });
}

TEST(Autograd, Conv1d) {
  // Gradients of x, w and b at every odd width K up to 7 and every length
  // L up to 20, under a non-uniform upstream gradient: a weighted sum, so
  // a mixed-up index cannot hide behind a gradient that is the same
  // everywhere. K > L has the padding cover both ends of the row; L > 8
  // gives backward's 8-lane dot full chunks plus a tail.
  const int B = 2, Ci = 2, Co = 3;
  std::uint64_t seed = 100;
  for (int K : {1, 3, 5, 7}) {
    for (int L = 1; L <= 20; ++L) {
      SCOPED_TRACE("K=" + std::to_string(K) + " L=" + std::to_string(L));
      clo::Rng upstream_rng(seed++);
      const Tensor upstream =
          Tensor::randn({B, Co, L}, upstream_rng, 1.0f, false);
      const Tensor x = random_tensor({B, Ci, L}, seed++);
      const Tensor w = random_tensor({Co, Ci, K}, seed++, 0.5f);
      const Tensor b = random_tensor({Co}, seed++);
      auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
        return sum_all(mul(conv1d(xx, ww, bb), upstream));
      };
      grad_check(random_tensor({B, Ci, L}, seed++),
                 [&](const Tensor& t) { return loss(t, w, b); });
      grad_check(random_tensor({Co, Ci, K}, seed++, 0.5f),
                 [&](const Tensor& t) { return loss(x, t, b); });
      grad_check(random_tensor({Co}, seed++),
                 [&](const Tensor& t) { return loss(x, w, t); });
    }
  }
}

/// The per-tap conv1d backward that the product form replaced: one
/// kernel::sum per (b, co), and one kernel::dot (dW) and one kernel::axpy
/// (dx) per (b, co, ci, k) over the tap's valid slice. Kept here as the
/// reference that conv1d's backward must reproduce bit for bit. Null
/// dx/dw skip that gradient, as a frozen leaf does.
void per_tap_conv1d_backward(const float* x, const float* w, const float* gy,
                             float* dx, float* dw, float* db, int B, int Ci,
                             int L, int Co, int K) {
  const int pad = K / 2;
  for (int b = 0; b < B; ++b) {
    for (int co = 0; co < Co; ++co) {
      const float* g = gy + (static_cast<std::size_t>(b) * Co + co) * L;
      db[co] += kernel::sum(g, L);
      for (int ci = 0; ci < Ci; ++ci) {
        const std::size_t row = (static_cast<std::size_t>(b) * Ci + ci) * L;
        for (int k = 0; k < K; ++k) {
          const int shift = k - pad;
          const int lo = shift < 0 ? -shift : 0;
          const int hi = shift > 0 ? L - shift : L;
          if (hi < lo) continue;
          const int wi = (co * Ci + ci) * K + k;
          if (dw != nullptr)
            dw[wi] += kernel::dot(g + lo, x + row + lo + shift, hi - lo);
          if (dx != nullptr)
            kernel::axpy(dx + row + lo + shift, w[wi], g + lo, hi - lo);
        }
      }
    }
  }
}

::testing::AssertionResult same_bits(const FloatBuf& got,
                                     const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  const auto bits = [](float v) {
    std::uint32_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  const auto hex = [&bits](float v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", bits(v));
    return std::string(buf);
  };
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (bits(got[i]) != bits(want[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " (" << hex(got[i])
             << ") vs reference " << want[i] << " (" << hex(want[i]) << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Autograd, Conv1dBackwardMatchesPerTapLoopBitwise) {
  // dx, dW and db after two accumulating backward passes equal the per-tap
  // loop's bits, at every odd K up to 7 and L up to 21 (K > 2L + 1 has
  // taps that miss the row), across channel counts that leave 8-wide
  // vector blocks partial and full, with x frozen and with w frozen, on
  // every dispatch target this host runs.
  const int B = 2;
  const int channels[][2] = {{1, 1}, {2, 3}, {5, 7}, {9, 13}, {32, 64}};
  std::vector<kernel::Target> targets = {kernel::Target::kScalar};
  if (kernel::target_supported(kernel::Target::kAvx2)) {
    targets.push_back(kernel::Target::kAvx2);
  }
  enum class Frozen { kNone, kX, kW };
  std::uint64_t seed = 500;
  for (kernel::Target target : targets) {
    kernel::set_target(target);
    for (int K : {1, 3, 5, 7}) {
      for (int L = 1; L <= 21; ++L) {
        for (const auto& cc : channels) {
          const int Ci = cc[0], Co = cc[1];
          for (Frozen frozen : {Frozen::kNone, Frozen::kX, Frozen::kW}) {
            SCOPED_TRACE(std::string(kernel::target_name(target)) +
                         " K=" + std::to_string(K) + " L=" +
                         std::to_string(L) + " Ci=" + std::to_string(Ci) +
                         " Co=" + std::to_string(Co) + " frozen=" +
                         std::to_string(static_cast<int>(frozen)));
            clo::Rng rng(seed++);
            Tensor x = Tensor::randn({B, Ci, L}, rng, 1.0f,
                                     frozen != Frozen::kX);
            Tensor w = Tensor::randn({Co, Ci, K}, rng, 0.5f, true);
            Tensor bias = Tensor::randn({Co}, rng, 1.0f, true);
            std::vector<float> dx(x.numel(), 0.0f), dw(w.numel(), 0.0f),
                db(bias.numel(), 0.0f);
            {
              GradFreeze freeze(frozen == Frozen::kW ? std::vector<Tensor>{w}
                                                     : std::vector<Tensor>{});
              for (int pass = 0; pass < 2; ++pass) {
                const Tensor upstream =
                    Tensor::randn({B, Co, L}, rng, 1.0f, false);
                backward(sum_all(mul(conv1d(x, w, bias), upstream)));
                per_tap_conv1d_backward(
                    x.data().data(), w.data().data(), upstream.data().data(),
                    frozen == Frozen::kX ? nullptr : dx.data(),
                    frozen == Frozen::kW ? nullptr : dw.data(), db.data(), B,
                    Ci, L, Co, K);
              }
            }
            if (frozen == Frozen::kX) {
              EXPECT_TRUE(x.impl()->grad.empty());
            } else {
              EXPECT_TRUE(same_bits(x.impl()->grad, dx)) << "dx";
            }
            if (frozen == Frozen::kW) {
              EXPECT_TRUE(w.impl()->grad.empty());
            } else {
              EXPECT_TRUE(same_bits(w.impl()->grad, dw)) << "dW";
            }
            EXPECT_TRUE(same_bits(bias.impl()->grad, db)) << "db";
          }
        }
      }
    }
  }
  kernel::set_target(kernel::best_supported_target());
}

TEST(Autograd, PoolingAndUpsample) {
  grad_check(random_tensor({2, 3, 8}, 31), [](const Tensor& x) {
    return sum_all(upsample1d(avg_pool1d(x)));
  });
}

TEST(Autograd, ConcatChannelsAndChannelBias) {
  const Tensor other = random_tensor({2, 2, 4}, 32);
  const Tensor bias = random_tensor({2, 5}, 33);
  grad_check(random_tensor({2, 3, 4}, 34), [&](const Tensor& x) {
    return sum_all(add_channel_bias(concat_channels(x, other), bias));
  });
}

TEST(Autograd, DiamondGraphAccumulates) {
  // y = sum(x*x + x) uses x twice; gradient must accumulate both paths.
  Tensor x = Tensor::from_data({3}, {1.0f, -2.0f, 0.5f}, true);
  Tensor y = sum_all(add(mul(x, x), x));
  backward(y);
  EXPECT_NEAR(x.grad()[0], 2 * 1.0f + 1, 1e-5);
  EXPECT_NEAR(x.grad()[1], 2 * -2.0f + 1, 1e-5);
  EXPECT_NEAR(x.grad()[2], 2 * 0.5f + 1, 1e-5);
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor x = Tensor::from_data({2}, {1.0f, 2.0f}, true);
  EXPECT_THROW(backward(x), std::invalid_argument);
}

TEST(Autograd, NoGradWhenNotRequired) {
  Tensor x = Tensor::from_data({2}, {1.0f, 2.0f}, false);
  Tensor y = sum_all(mul(x, x));
  EXPECT_FALSE(y.requires_grad());
}

TEST(Autograd, NoGradGuardDisablesGraphRecording) {
  Tensor x = Tensor::from_data({2}, {1.0f, 2.0f}, true);
  {
    NoGradGuard guard;
    EXPECT_FALSE(grad_enabled());
    // Values still compute, but nothing records a graph — even from a
    // requires_grad input, across binary, unary, and row-wise ops.
    Tensor y = sum_all(mul(x, x));
    EXPECT_FALSE(y.requires_grad());
    EXPECT_NEAR(y.item(), 5.0f, 1e-5);
    EXPECT_FALSE(silu(x).requires_grad());
    EXPECT_FALSE(softmax_rows(reshape(x, {1, 2})).requires_grad());
    // Guards nest and restore on scope exit.
    {
      NoGradGuard inner;
      EXPECT_FALSE(grad_enabled());
    }
    EXPECT_FALSE(grad_enabled());
  }
  EXPECT_TRUE(grad_enabled());
  // Recording works again after the guard is gone.
  Tensor y = sum_all(mul(x, x));
  EXPECT_TRUE(y.requires_grad());
  backward(y);
  EXPECT_NEAR(x.grad()[0], 2.0f, 1e-5);
  EXPECT_NEAR(x.grad()[1], 4.0f, 1e-5);
}

TEST(Tensor, ShapeChecksThrow) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({3, 2});
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(matmul(a, a), std::invalid_argument);
  EXPECT_THROW(reshape(a, {5}), std::invalid_argument);
  EXPECT_THROW(Tensor::from_data({2}, {1.0f}), std::invalid_argument);
}

}  // namespace
