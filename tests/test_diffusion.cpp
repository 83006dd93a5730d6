#include <gtest/gtest.h>

#include <cmath>

#include "clo/models/diffusion.hpp"
#include "clo/models/embedding.hpp"
#include "clo/nn/ops.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;
using models::DdpmSchedule;
using models::DiffusionConfig;
using models::DiffusionModel;

TEST(DdpmSchedule, TablesAreConsistent) {
  DdpmSchedule s(100);
  EXPECT_EQ(s.num_steps(), 100);
  float bar = 1.0f;
  for (int t = 0; t < 100; ++t) {
    EXPECT_GT(s.beta(t), 0.0f);
    EXPECT_LT(s.beta(t), 1.0f);
    EXPECT_FLOAT_EQ(s.alpha(t), 1.0f - s.beta(t));
    const float bar_prev = bar;
    bar *= s.alpha(t);
    EXPECT_FLOAT_EQ(s.alpha_bar(t), bar);
    EXPECT_FLOAT_EQ(s.alpha_bar_prev(t), bar_prev);
    // Posterior variance beta~_t = (1-abar_{t-1})/(1-abar_t) beta_t.
    EXPECT_FLOAT_EQ(s.sigma(t) * s.sigma(t),
                    (1.0f - bar_prev) / (1.0f - bar) * s.beta(t));
    // Posterior mean coefficients are positive and roughly convex
    // (their sum approaches 1 only as beta -> 0, so just bound it).
    EXPECT_GT(s.coef_x0(t), 0.0f);
    EXPECT_GE(s.coef_xt(t), 0.0f);
    EXPECT_GT(s.coef_x0(t) + s.coef_xt(t), 0.85f);
    EXPECT_LT(s.coef_x0(t) + s.coef_xt(t), 1.01f);
  }
  // Monotone decreasing alpha_bar, approaching 0 for late steps.
  for (int t = 1; t < 100; ++t) {
    EXPECT_LT(s.alpha_bar(t), s.alpha_bar(t - 1));
  }
  EXPECT_LT(s.alpha_bar(99), 0.05f);
  EXPECT_GT(s.alpha_bar(0), 0.99f);
}

TEST(DdpmSchedule, ScalesToStepCount) {
  // Short schedules are rescaled so cumulative noise still reaches ~0 at
  // t = T (beta capped at 0.5 to stay well-defined).
  DdpmSchedule s(50, 1e-4f, 0.02f);
  EXPECT_GT(s.beta(49), 0.02f);
  EXPECT_LE(s.beta(49), 0.5f);
  EXPECT_LT(s.alpha_bar(49), 0.05f);
  // At the reference T = 1000 the endpoints are the classic DDPM values.
  DdpmSchedule ref(1000, 1e-4f, 0.02f);
  EXPECT_FLOAT_EQ(ref.beta(0), 1e-4f);
  EXPECT_FLOAT_EQ(ref.beta(999), 0.02f);
  EXPECT_THROW(DdpmSchedule(1), std::invalid_argument);
}

TEST(ChannelLayout, RoundTrip) {
  const int L = 4, d = 3;
  std::vector<float> flat(L * d);
  for (std::size_t i = 0; i < flat.size(); ++i) flat[i] = static_cast<float>(i);
  std::vector<float> chan(L * d), back(L * d);
  models::to_channel_layout_into(flat.data(), L, d, chan.data());
  models::from_channel_layout_into(chan.data(), L, d, back.data());
  EXPECT_EQ(back, flat);
  // position 2, channel 1 = flat[2*3+1] = chan[1*4+2]
  EXPECT_FLOAT_EQ(chan[1 * 4 + 2], flat[2 * 3 + 1]);
}

DiffusionConfig tiny_config() {
  DiffusionConfig cfg;
  cfg.seq_len = 8;
  cfg.embed_dim = 8;
  cfg.channels = 16;
  cfg.time_dim = 16;
  cfg.num_steps = 30;
  return cfg;
}

TEST(DiffusionUNet, ShapeAndTimeConditioning) {
  clo::Rng rng(1);
  const auto cfg = tiny_config();
  models::DiffusionUNet unet(cfg, rng);
  nn::Tensor x = nn::Tensor::randn({2, cfg.embed_dim, cfg.seq_len}, rng, 1.0f);
  nn::Tensor e1 = unet.forward(x, {0, 0});
  EXPECT_EQ(e1.shape(), (std::vector<int>{2, cfg.embed_dim, cfg.seq_len}));
  nn::Tensor e2 = unet.forward(x, {25, 25});
  double diff = 0.0;
  for (std::size_t i = 0; i < e1.numel(); ++i) {
    diff += std::abs(e1.data()[i] - e2.data()[i]);
  }
  EXPECT_GT(diff, 1e-4) << "timestep must condition the output";
}

TEST(DiffusionUNet, RejectsBadSeqLen) {
  clo::Rng rng(2);
  DiffusionConfig cfg = tiny_config();
  cfg.seq_len = 10;  // not divisible by 4
  EXPECT_THROW(models::DiffusionUNet(cfg, rng), std::invalid_argument);
}

TEST(DiffusionModel, TrainingReducesLoss) {
  clo::Rng rng(3);
  const auto cfg = tiny_config();
  DiffusionModel model(cfg, rng);
  // Data: two clusters of constant sequences.
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 32; ++i) {
    std::vector<float> x(cfg.seq_len * cfg.embed_dim,
                         i % 2 == 0 ? 1.0f : -1.0f);
    data.push_back(std::move(x));
  }
  const auto early = model.train(data, 30, 8, 2e-3f, rng);
  const auto late = model.train(data, 150, 8, 2e-3f, rng);
  EXPECT_LT(late.final_loss, early.final_loss);
  EXPECT_LT(late.final_loss, 1.2);  // below the eps ~ N(0,1) baseline of ~1
}

TEST(DiffusionModel, LossCurveStartsAtTheFirstIterationLoss) {
  // The reported loss is a bias-corrected EMA, so its first point is the
  // first iteration's loss itself, not 5% of it. The reference replays
  // that iteration's batch draws on an identically initialized twin.
  const auto cfg = tiny_config();
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 8; ++i) {
    data.emplace_back(cfg.seq_len * cfg.embed_dim, 0.25f * (i - 4));
  }
  constexpr int kBatch = 4;
  clo::Rng init_a(8), init_b(8);
  DiffusionModel model(cfg, init_a);
  DiffusionModel twin(cfg, init_b);

  clo::Rng train_rng(9);
  const auto stats = model.train(data, 10, kBatch, 1e-3f, train_rng);
  ASSERT_FALSE(stats.loss_curve.empty());

  clo::Rng rng(9);
  const int L = cfg.seq_len, d = cfg.embed_dim;
  nn::Tensor x = nn::Tensor::zeros({kBatch, d, L});
  nn::Tensor eps = nn::Tensor::zeros({kBatch, d, L});
  std::vector<int> ts(kBatch);
  for (int b = 0; b < kBatch; ++b) {
    const auto& x0 = data[rng.next_below(data.size())];
    ts[b] = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(twin.schedule().num_steps())));
    const float sa = std::sqrt(twin.schedule().alpha_bar(ts[b]));
    const float sb = std::sqrt(1.0f - twin.schedule().alpha_bar(ts[b]));
    std::vector<float> chan(d * L);
    models::to_channel_layout_into(x0.data(), L, d, chan.data());
    for (int i = 0; i < d * L; ++i) {
      const float e = static_cast<float>(rng.next_gaussian());
      eps.data()[b * d * L + i] = e;
      x.data()[b * d * L + i] = sa * chan[i] + sb * e;
    }
  }
  const double first = nn::mse_loss(twin.unet().forward(x, ts), eps).item();
  EXPECT_DOUBLE_EQ(stats.loss_curve[0], first);
}

TEST(DiffusionModel, SamplesApproachTrainingManifold) {
  clo::Rng rng(4);
  models::TransformEmbedding emb(8, rng);
  DiffusionConfig cfg = tiny_config();
  DiffusionModel model(cfg, rng);
  // Train on embeddings of random sequences (the real use case).
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 64; ++i) {
    data.push_back(emb.embed(opt::random_sequence(cfg.seq_len, rng)));
  }
  model.train(data, 2000, 16, 2e-3f, rng);
  // Samples should sit much closer to the embedding manifold than noise.
  auto discrepancy = [&](const std::vector<float>& latent) {
    std::vector<double> disc;
    emb.retrieve_batch({latent}, cfg.seq_len, &disc);
    return disc[0];
  };
  double sampled = 0.0, noise = 0.0;
  for (int trial = 0; trial < 4; ++trial) {
    sampled += discrepancy(model.sample(rng));
    std::vector<float> raw(cfg.seq_len * cfg.embed_dim);
    for (auto& v : raw) v = static_cast<float>(rng.next_gaussian());
    noise += discrepancy(raw);
  }
  EXPECT_LT(sampled, 0.65 * noise);
}

TEST(DiffusionModel, PredictNoiseDeterministic) {
  clo::Rng rng(5);
  DiffusionModel model(tiny_config(), rng);
  std::vector<float> x(8 * 8, 0.5f);
  const auto e1 = model.predict_noise_batch({x}, 10)[0];
  const auto e2 = model.predict_noise_batch({x}, 10)[0];
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(e1.size(), x.size());
}

}  // namespace
