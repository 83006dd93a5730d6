#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "clo/nn/modules.hpp"
#include "clo/nn/optim.hpp"
#include "clo/nn/serialize.hpp"
#include "clo/util/fault.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo::nn;

TEST(Linear, ShapesAndParams) {
  clo::Rng rng(1);
  Linear fc(5, 3, rng);
  EXPECT_EQ(fc.num_parameters(), 5u * 3u + 3u);
  Tensor y = fc.forward(Tensor::zeros({2, 5}));
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 3}));
}

TEST(Linear, LearnsLinearMap) {
  clo::Rng rng(2);
  Linear fc(2, 1, rng);
  Adam opt(fc.parameters(), 5e-2f);
  // Target: y = 3 x0 - 2 x1 + 1.
  for (int step = 0; step < 400; ++step) {
    Tensor x = Tensor::randn({8, 2}, rng, 1.0f);
    Tensor target = Tensor::zeros({8, 1});
    for (int i = 0; i < 8; ++i) {
      target.data()[i] = 3 * x.data()[2 * i] - 2 * x.data()[2 * i + 1] + 1;
    }
    Tensor loss = mse_loss(fc.forward(x), target);
    backward(loss);
    opt.step();
  }
  Tensor probe = Tensor::from_data({1, 2}, {1.0f, 1.0f});
  EXPECT_NEAR(fc.forward(probe).item(), 3 - 2 + 1, 0.1);
}

TEST(Mlp, FitsNonlinearFunction) {
  clo::Rng rng(3);
  Mlp mlp(1, 16, 1, rng);
  Adam opt(mlp.parameters(), 1e-2f);
  for (int step = 0; step < 600; ++step) {
    Tensor x = Tensor::randn({16, 1}, rng, 1.0f);
    Tensor target = Tensor::zeros({16, 1});
    for (int i = 0; i < 16; ++i) {
      target.data()[i] = std::abs(x.data()[i]);  // V shape
    }
    Tensor loss = mse_loss(mlp.forward(x), target);
    backward(loss);
    opt.step();
  }
  // |0.8| should predict near 0.8.
  Tensor probe = Tensor::from_data({1, 1}, {0.8f});
  EXPECT_NEAR(mlp.forward(probe).item(), 0.8f, 0.2f);
}

TEST(Lstm, ShapesAndStatefulness) {
  clo::Rng rng(4);
  Lstm lstm(3, 8, rng);
  std::vector<Tensor> steps;
  for (int t = 0; t < 5; ++t) steps.push_back(Tensor::randn({2, 3}, rng, 1.0f));
  const auto hs = lstm.forward(steps);
  ASSERT_EQ(hs.size(), 5u);
  for (const auto& h : hs) EXPECT_EQ(h.shape(), (std::vector<int>{2, 8}));
  // Different inputs must produce different final states.
  std::vector<Tensor> steps2 = steps;
  steps2[0] = Tensor::randn({2, 3}, rng, 2.0f);
  const auto hs2 = lstm.forward(steps2);
  double diff = 0.0;
  for (std::size_t i = 0; i < hs2.back().numel(); ++i) {
    diff += std::abs(hs2.back().data()[i] - hs.back().data()[i]);
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(Lstm, LearnsOrderSensitivity) {
  // Distinguish sequence [1,0] from [0,1] — impossible for a bag-of-inputs,
  // requires actual recurrence.
  clo::Rng rng(5);
  Lstm lstm(1, 6, rng);
  Linear head(6, 1, rng);
  auto params = lstm.parameters();
  auto hp = head.parameters();
  params.insert(params.end(), hp.begin(), hp.end());
  Adam opt(params, 2e-2f);
  auto forward = [&](float a, float b) {
    std::vector<Tensor> steps{Tensor::from_data({1, 1}, {a}),
                              Tensor::from_data({1, 1}, {b})};
    return head.forward(lstm.forward(steps).back());
  };
  Tensor pos = Tensor::from_data({1, 1}, {1.0f});
  Tensor negt = Tensor::from_data({1, 1}, {-1.0f});
  for (int step = 0; step < 1200; ++step) {
    Tensor l1 = mse_loss(forward(1, 0), pos);
    Tensor l2 = mse_loss(forward(0, 1), negt);
    backward(add(l1, l2));
    opt.step();
  }
  EXPECT_GT(forward(1, 0).item(), 0.3f);
  EXPECT_LT(forward(0, 1).item(), -0.3f);
}

TEST(AttentionPool, ShapeAndWeighting) {
  clo::Rng rng(6);
  AttentionPool pool(4, 8, rng);
  std::vector<Tensor> steps;
  for (int t = 0; t < 6; ++t) steps.push_back(Tensor::randn({3, 4}, rng, 1.0f));
  Tensor out = pool.forward(steps);
  EXPECT_EQ(out.shape(), (std::vector<int>{3, 4}));
  // Pooled output is a convex combination: bounded by min/max over steps.
  for (int b = 0; b < 3; ++b) {
    for (int f = 0; f < 4; ++f) {
      float lo = 1e9f, hi = -1e9f;
      for (const auto& s : steps) {
        lo = std::min(lo, s.data()[b * 4 + f]);
        hi = std::max(hi, s.data()[b * 4 + f]);
      }
      EXPECT_GE(out.data()[b * 4 + f], lo - 1e-4f);
      EXPECT_LE(out.data()[b * 4 + f], hi + 1e-4f);
    }
  }
}

TEST(Conv1dLayer, Shapes) {
  clo::Rng rng(7);
  Conv1dLayer conv(3, 5, 3, rng);
  Tensor y = conv.forward(Tensor::zeros({2, 3, 8}));
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 5, 8}));
}

TEST(TimestepEmbedding, DistinctAndBounded) {
  Tensor e1 = timestep_embedding({1, 100, 499}, 16);
  EXPECT_EQ(e1.shape(), (std::vector<int>{3, 16}));
  for (float v : e1.data()) {
    EXPECT_LE(std::abs(v), 1.0f + 1e-6f);
  }
  // Rows for different timesteps differ.
  double diff = 0.0;
  for (int i = 0; i < 16; ++i) {
    diff += std::abs(e1.data()[i] - e1.data()[16 + i]);
  }
  EXPECT_GT(diff, 0.1);
}

TEST(Adam, ConvergesOnQuadratic) {
  Tensor x = Tensor::from_data({3}, {5.0f, -4.0f, 2.0f}, true);
  Adam opt({x}, 0.1f);
  for (int step = 0; step < 300; ++step) {
    Tensor loss = sum_all(mul(x, x));
    backward(loss);
    opt.step();
  }
  for (float v : x.data()) EXPECT_NEAR(v, 0.0f, 0.05f);
}

TEST(Adam, ZeroGradClearsAccumulation) {
  Tensor x = Tensor::from_data({1}, {2.0f}, true);
  Adam opt({x}, 0.0f);  // lr 0: only bookkeeping
  Tensor loss = sum_all(mul(x, x));
  backward(loss);
  EXPECT_NE(x.grad()[0], 0.0f);
  opt.zero_grad();
  EXPECT_EQ(x.grad()[0], 0.0f);
}


TEST(Serialize, RoundTripParameters) {
  clo::Rng rng(31);
  Mlp a(4, 8, 2, rng);
  Mlp b(4, 8, 2, rng);  // different random init
  const std::string path = testing::TempDir() + "/clo_params.bin";
  ASSERT_TRUE(save_module(a, path));
  ASSERT_TRUE(load_module(b, path));
  Tensor x = Tensor::randn({3, 4}, rng, 1.0f);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.numel(); ++i) {
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Serialize, RejectsShapeMismatchAndGarbage) {
  clo::Rng rng(32);
  Mlp a(4, 8, 2, rng);
  Mlp wrong(4, 9, 2, rng);
  const std::string path = testing::TempDir() + "/clo_params2.bin";
  ASSERT_TRUE(save_module(a, path));
  EXPECT_FALSE(load_module(wrong, path));
  EXPECT_FALSE(load_module(a, testing::TempDir() + "/does_not_exist.bin"));
  // Corrupt magic.
  const std::string bad = testing::TempDir() + "/clo_bad.bin";
  {
    std::ofstream f(bad, std::ios::binary);
    f << "NOTAMODEL";
  }
  EXPECT_FALSE(load_module(a, bad));
}

TEST(Serialize, EveryTruncationIsRejected) {
  clo::Rng rng(33);
  Mlp model(4, 8, 2, rng);
  auto params = model.parameters();
  std::ostringstream os(std::ios::binary);
  ASSERT_TRUE(save_parameters(params, os));
  const std::string blob = os.str();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    std::istringstream is(blob.substr(0, len), std::ios::binary);
    auto fresh = model.parameters();
    EXPECT_FALSE(load_parameters(fresh, is)) << "truncated to " << len;
  }
  std::istringstream full(blob, std::ios::binary);
  auto fresh = model.parameters();
  EXPECT_TRUE(load_parameters(fresh, full));
}

TEST(Serialize, CorruptMetadataIsRejectedBeforeAllocation) {
  clo::Rng rng(34);
  Mlp model(4, 8, 2, rng);
  auto params = model.parameters();
  std::ostringstream os(std::ios::binary);
  ASSERT_TRUE(save_parameters(params, os));
  const std::string blob = os.str();
  // Layout: magic (6 bytes), tensor count (u32), then per tensor
  // ndims (u32) and dims (i32 each). Corrupt each metadata field to a
  // hostile value; the loader must reject before sizing any allocation.
  auto patch_u32 = [&](std::size_t offset, std::uint32_t v) {
    std::string bad = blob;
    std::memcpy(&bad[offset], &v, sizeof(v));
    return bad;
  };
  for (const auto& bad :
       {patch_u32(6, 0xffffffffu),               // absurd tensor count
        patch_u32(10, kMaxTensorDims + 1),       // ndims over the cap
        patch_u32(14, 0x7fffffffu)}) {           // first dim near INT_MAX
    std::istringstream is(bad, std::ios::binary);
    auto fresh = model.parameters();
    EXPECT_FALSE(load_parameters(fresh, is));
  }
}

TEST(Serialize, BitFlipFuzzNeverCrashes) {
  clo::Rng rng(35);
  Mlp model(2, 4, 1, rng);
  auto params = model.parameters();
  std::ostringstream os(std::ios::binary);
  ASSERT_TRUE(save_parameters(params, os));
  const std::string blob = os.str();
  // A flip inside the float payload is undetectable at this layer (the
  // checkpoint container's CRC32 exists for that) — here we only require
  // that no flip crashes or over-allocates.
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] ^= 0x04;
    std::istringstream is(bad, std::ios::binary);
    auto fresh = model.parameters();
    load_parameters(fresh, is);
  }
}

TEST(Serialize, InjectedFaultSitesCoverBothDirections) {
  clo::Rng rng(36);
  Mlp model(2, 4, 1, rng);
  auto params = model.parameters();
  std::ostringstream os(std::ios::binary);
  clo::util::fault::arm("serialize.write=1");
  EXPECT_THROW(save_parameters(params, os),
               clo::util::fault::InjectedFault);
  clo::util::fault::disarm();
  ASSERT_TRUE(save_parameters(params, os));
  clo::util::fault::arm("serialize.read=1");
  std::istringstream is(os.str(), std::ios::binary);
  EXPECT_THROW(load_parameters(params, is),
               clo::util::fault::InjectedFault);
  clo::util::fault::disarm();
}

}  // namespace
