#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "clo/circuits/generators.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/models/embedding.hpp"
#include "clo/models/surrogate.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;

/// One latent through retrieve_batch: its sequence and discrepancy.
std::pair<opt::Sequence, double> decode(const models::TransformEmbedding& emb,
                                        const std::vector<float>& latent,
                                        int length) {
  std::vector<double> disc;
  auto seqs = emb.retrieve_batch({latent}, length, &disc);
  return {std::move(seqs[0]), disc[0]};
}

TEST(Embedding, OrthogonalUnitVarianceRows) {
  clo::Rng rng(1);
  models::TransformEmbedding emb(8, rng);
  const auto& table = emb.table();
  ASSERT_EQ(table.size(), static_cast<std::size_t>(opt::kNumTransforms));
  for (std::size_t i = 0; i < table.size(); ++i) {
    double norm = 0.0;
    for (float v : table[i]) norm += static_cast<double>(v) * v;
    EXPECT_NEAR(norm, 8.0, 1e-4);  // norm sqrt(d): unit coordinate variance
    for (std::size_t j = i + 1; j < table.size(); ++j) {
      double dot = 0.0;
      for (int k = 0; k < 8; ++k) dot += table[i][k] * table[j][k];
      EXPECT_NEAR(dot, 0.0, 1e-5);
    }
  }
}

TEST(Embedding, RejectsTooSmallDim) {
  clo::Rng rng(2);
  EXPECT_THROW(models::TransformEmbedding(4, rng), std::invalid_argument);
}

TEST(Embedding, EmbedRetrieveRoundTrip) {
  clo::Rng rng(3);
  models::TransformEmbedding emb(8, rng);
  for (int trial = 0; trial < 20; ++trial) {
    const auto seq = opt::random_sequence(20, rng);
    const auto latent = emb.embed(seq);
    EXPECT_EQ(latent.size(), 20u * 8u);
    const auto [decoded, discrepancy] = decode(emb, latent, 20);
    EXPECT_EQ(decoded, seq);
    EXPECT_NEAR(discrepancy, 0.0, 1e-6);
  }
}

TEST(Embedding, RetrievalRobustToSmallNoise) {
  clo::Rng rng(4);
  models::TransformEmbedding emb(8, rng);
  const auto seq = opt::random_sequence(20, rng);
  auto latent = emb.embed(seq);
  // Orthonormal rows are sqrt(2) apart; noise well below half that
  // distance must not flip retrieval.
  for (auto& v : latent) v += 0.1f * static_cast<float>(rng.next_gaussian());
  const auto [decoded, discrepancy] = decode(emb, latent, 20);
  EXPECT_EQ(decoded, seq);
  EXPECT_GT(discrepancy, 0.0);
}

TEST(Embedding, DiscrepancyGrowsWithNoise) {
  clo::Rng rng(5);
  models::TransformEmbedding emb(8, rng);
  const auto seq = opt::random_sequence(20, rng);
  const auto base = emb.embed(seq);
  double prev = 0.0;
  for (float noise : {0.05f, 0.2f, 0.8f}) {
    auto latent = base;
    clo::Rng nrng(6);
    for (auto& v : latent) v += noise * static_cast<float>(nrng.next_gaussian());
    const double d = decode(emb, latent, 20).second;
    EXPECT_GT(d, prev);
    prev = d;
  }
}

class SurrogateKindTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SurrogateKindTest, ForwardShapesAndGradients) {
  clo::Rng rng(7);
  const aig::Aig g = circuits::make_benchmark("ctrl");
  models::SurrogateConfig cfg;
  auto model = models::make_surrogate(GetParam(), g, cfg, rng);
  EXPECT_EQ(model->name(), GetParam());
  EXPECT_GT(model->num_parameters(), 100u);

  nn::Tensor x = nn::Tensor::randn({3, cfg.seq_len * cfg.embed_dim}, rng,
                                   1.0f, true);
  auto out = model->forward(x);
  EXPECT_EQ(out.area.shape(), (std::vector<int>{3, 1}));
  EXPECT_EQ(out.delay.shape(), (std::vector<int>{3, 1}));
  // Gradient w.r.t. the input embedding exists and is non-zero — the
  // property that makes continuous optimization possible (Eq. 3).
  nn::backward(nn::sum_all(nn::add(out.area, out.delay)));
  double norm = 0.0;
  for (float v : x.grad()) norm += static_cast<double>(v) * v;
  EXPECT_GT(norm, 0.0);
}

/// The bits of the gradient that one forward and backward through `loss`
/// leaves on a fresh requires_grad copy of `input`.
std::vector<std::uint32_t> input_gradient_bits(
    const nn::Tensor& input,
    const std::function<nn::Tensor(const nn::Tensor&)>& loss) {
  nn::Tensor x = nn::Tensor::from_data(
      input.shape(), {input.data().begin(), input.data().end()}, true);
  nn::backward(loss(x));
  std::vector<std::uint32_t> bits;
  for (float v : x.grad()) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

/// Under a GradFreeze of `model`'s parameters, backward never touches a
/// parameter's grad buffer, and the input gradient is the one an unfrozen
/// pass computes, bit for bit.
void expect_freeze_only_skips_parameters(
    nn::Module& model, const nn::Tensor& input,
    const std::function<nn::Tensor(const nn::Tensor&)>& loss) {
  std::vector<std::uint32_t> frozen;
  {
    nn::GradFreeze freeze(model.parameters());
    frozen = input_gradient_bits(input, loss);
  }
  for (const auto& p : model.parameters()) {
    EXPECT_TRUE(p.impl()->grad.empty());
    EXPECT_TRUE(p.requires_grad());  // restored when the freeze ends
  }
  EXPECT_FALSE(frozen.empty());
  EXPECT_EQ(frozen, input_gradient_bits(input, loss));
}

TEST_P(SurrogateKindTest, GradFreezeOnlySkipsParameters) {
  clo::Rng rng(13);
  const aig::Aig g = circuits::make_benchmark("ctrl");
  models::SurrogateConfig cfg;
  auto model = models::make_surrogate(GetParam(), g, cfg, rng);
  const nn::Tensor x =
      nn::Tensor::randn({3, cfg.seq_len * cfg.embed_dim}, rng, 1.0f);
  expect_freeze_only_skips_parameters(*model, x, [&](const nn::Tensor& in) {
    const auto out = model->forward(in);
    return nn::add(nn::scale(nn::sum_all(out.area), 0.5f),
                   nn::scale(nn::sum_all(out.delay), 0.5f));
  });
}

TEST(GradFreeze, UNetOnlySkipsParameters) {
  clo::Rng rng(14);
  models::DiffusionConfig cfg;
  cfg.seq_len = 8;
  cfg.channels = 8;
  cfg.time_dim = 8;
  cfg.num_steps = 10;
  models::DiffusionUNet unet(cfg, rng);
  const nn::Tensor x =
      nn::Tensor::randn({2, cfg.embed_dim, cfg.seq_len}, rng, 1.0f);
  const nn::Tensor target =
      nn::Tensor::randn({2, cfg.embed_dim, cfg.seq_len}, rng, 1.0f);
  expect_freeze_only_skips_parameters(unet, x, [&](const nn::Tensor& in) {
    return nn::mse_loss(unet.forward(in, {3, 7}), target);
  });
}

TEST_P(SurrogateKindTest, DifferentInputsDifferentOutputs) {
  clo::Rng rng(8);
  const aig::Aig g = circuits::make_benchmark("ctrl");
  models::SurrogateConfig cfg;
  auto model = models::make_surrogate(GetParam(), g, cfg, rng);
  nn::Tensor x1 = nn::Tensor::randn({1, cfg.seq_len * cfg.embed_dim}, rng, 1.0f);
  nn::Tensor x2 = nn::Tensor::randn({1, cfg.seq_len * cfg.embed_dim}, rng, 1.0f);
  const float y1 = model->forward(x1).area.item();
  const float y2 = model->forward(x2).area.item();
  EXPECT_NE(y1, y2);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SurrogateKindTest,
                         ::testing::Values("mtl", "lostin", "cnn"),
                         [](const auto& info) { return info.param; });

TEST(Surrogate, UnknownKindThrows) {
  clo::Rng rng(9);
  const aig::Aig g = circuits::make_benchmark("c17");
  EXPECT_THROW(models::make_surrogate("bogus", g, {}, rng),
               std::invalid_argument);
}

TEST(AigEncoder, DeterministicForSameCircuitAndSeed) {
  const aig::Aig g = circuits::make_benchmark("c432");
  clo::Rng rng1(10), rng2(10);
  models::AigEncoder e1(g, 16, 256, rng1);
  models::AigEncoder e2(g, 16, 256, rng2);
  const auto v1 = e1.forward();
  const auto v2 = e2.forward();
  for (std::size_t i = 0; i < v1.numel(); ++i) {
    EXPECT_FLOAT_EQ(v1.data()[i], v2.data()[i]);
  }
}

TEST(AigEncoder, DistinguishesCircuits) {
  clo::Rng rng1(11), rng2(11);
  models::AigEncoder e1(circuits::make_benchmark("c432"), 16, 256, rng1);
  models::AigEncoder e2(circuits::make_benchmark("dec"), 16, 256, rng2);
  const auto v1 = e1.forward();
  const auto v2 = e2.forward();
  double diff = 0.0;
  for (std::size_t i = 0; i < v1.numel(); ++i) {
    diff += std::abs(v1.data()[i] - v2.data()[i]);
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(AigEncoder, HandlesHugeCircuitsViaSubsampling) {
  clo::Rng rng(12);
  models::AigEncoder enc(circuits::make_benchmark("sin"), 16, 128, rng);
  EXPECT_EQ(enc.forward().shape(), (std::vector<int>{1, 16}));
}

}  // namespace
