#include "clo/models/diffusion.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "clo/nn/optim.hpp"
#include "clo/util/fault.hpp"
#include "clo/util/obs.hpp"

namespace clo::models {

using nn::Tensor;

DdpmSchedule::DdpmSchedule(int num_steps, float beta_start, float beta_end)
    : T_(num_steps) {
  if (num_steps < 2) throw std::invalid_argument("DdpmSchedule: T too small");
  beta_.resize(T_);
  alpha_.resize(T_);
  alpha_bar_.resize(T_);
  sigma_.resize(T_);
  // The reference beta range is tuned for T = 1000 (Ho et al.); rescale so
  // the cumulative noise at t = T matches regardless of T (otherwise short
  // schedules never reach pure Gaussian and x_T ~ N(0, I) is off-manifold).
  // Cap the largest beta at 0.25: beyond that the 1/sqrt(alpha) factor in
  // the reverse update amplifies denoiser error too aggressively for the
  // small networks used here.
  const float scale =
      std::min(1000.0f / static_cast<float>(T_), 0.25f / beta_end);
  float bar = 1.0f;
  for (int t = 0; t < T_; ++t) {
    beta_[t] = scale * (beta_start +
                        (beta_end - beta_start) * static_cast<float>(t) /
                            static_cast<float>(T_ - 1));
    alpha_[t] = 1.0f - beta_[t];
    bar *= alpha_[t];
    alpha_bar_[t] = bar;
  }
  for (int t = 0; t < T_; ++t) {
    // beta~_t = (1 - abar_{t-1}) / (1 - abar_t) * beta_t.
    const float abar_prev = t == 0 ? 1.0f : alpha_bar_[t - 1];
    sigma_[t] = std::sqrt((1.0f - abar_prev) / (1.0f - alpha_bar_[t]) *
                          beta_[t]);
  }
}

DiffusionUNet::DiffusionUNet(const DiffusionConfig& cfg, clo::Rng& rng)
    : cfg_(cfg) {
  if (cfg.seq_len % 4 != 0) {
    throw std::invalid_argument("U-Net needs seq_len divisible by 4");
  }
  const int C = cfg.channels;
  time1_ = std::make_unique<nn::Linear>(cfg.time_dim, cfg.time_dim, rng);
  time2_ = std::make_unique<nn::Linear>(cfg.time_dim, cfg.time_dim, rng);
  film_in_ = std::make_unique<nn::Linear>(cfg.time_dim, C, rng);
  film_mid_ = std::make_unique<nn::Linear>(cfg.time_dim, 2 * C, rng);
  in_conv_ = std::make_unique<nn::Conv1dLayer>(cfg.embed_dim, C, 3, rng);
  down1_ = std::make_unique<nn::Conv1dLayer>(C, 2 * C, 3, rng);
  down2_ = std::make_unique<nn::Conv1dLayer>(2 * C, 2 * C, 3, rng);
  mid_ = std::make_unique<nn::Conv1dLayer>(2 * C, 2 * C, 3, rng);
  up1_ = std::make_unique<nn::Conv1dLayer>(4 * C, C, 3, rng);
  up2_ = std::make_unique<nn::Conv1dLayer>(2 * C, C, 3, rng);
  out_conv_ = std::make_unique<nn::Conv1dLayer>(C, cfg.embed_dim, 3, rng);
}

Tensor DiffusionUNet::forward(const Tensor& x, const std::vector<int>& t) {
  if (x.ndim() != 3 || x.dim(0) != static_cast<int>(t.size())) {
    throw std::invalid_argument("DiffusionUNet: bad input");
  }
  Tensor temb = nn::timestep_embedding(t, cfg_.time_dim);
  temb = nn::silu(time1_->forward(temb));
  temb = nn::silu(time2_->forward(temb));

  // Encoder.
  Tensor h0 = nn::silu(nn::add_channel_bias(in_conv_->forward(x),
                                            film_in_->forward(temb)));  // [B,C,L]
  Tensor h1 = nn::silu(down1_->forward(nn::avg_pool1d(h0)));            // [B,2C,L/2]
  Tensor h2 = nn::silu(nn::add_channel_bias(
      down2_->forward(nn::avg_pool1d(h1)), film_mid_->forward(temb)));  // [B,2C,L/4]
  // Bottleneck.
  Tensor m = nn::silu(mid_->forward(h2));                               // [B,2C,L/4]
  // Decoder with skip connections.
  Tensor u1 = nn::silu(up1_->forward(
      nn::concat_channels(nn::upsample1d(m), h1)));                     // [B,C,L/2]
  Tensor u2 = nn::silu(up2_->forward(
      nn::concat_channels(nn::upsample1d(u1), h0)));                    // [B,C,L]
  return out_conv_->forward(u2);                                       // [B,d,L]
}

std::vector<Tensor> DiffusionUNet::parameters() {
  std::vector<Tensor> p;
  auto push = [&](nn::Module& m) {
    auto q = m.parameters();
    p.insert(p.end(), q.begin(), q.end());
  };
  push(*time1_);
  push(*time2_);
  push(*film_in_);
  push(*film_mid_);
  push(*in_conv_);
  push(*down1_);
  push(*down2_);
  push(*mid_);
  push(*up1_);
  push(*up2_);
  push(*out_conv_);
  return p;
}

void to_channel_layout_into(const float* flat, int L, int d, float* chan) {
  for (int t = 0; t < L; ++t) {
    for (int c = 0; c < d; ++c) {
      chan[static_cast<std::size_t>(c) * L + t] =
          flat[static_cast<std::size_t>(t) * d + c];
    }
  }
}

void from_channel_layout_into(const float* chan, int L, int d, float* flat) {
  for (int t = 0; t < L; ++t) {
    for (int c = 0; c < d; ++c) {
      flat[static_cast<std::size_t>(t) * d + c] =
          chan[static_cast<std::size_t>(c) * L + t];
    }
  }
}

DiffusionModel::DiffusionModel(const DiffusionConfig& cfg, clo::Rng& rng)
    : cfg_(cfg), schedule_(cfg.num_steps),
      unet_(std::make_unique<DiffusionUNet>(cfg, rng)) {}

DiffusionModel::TrainStats DiffusionModel::train(
    const std::vector<std::vector<float>>& data, int iterations,
    int batch_size, float lr, clo::Rng& rng,
    const util::CancelToken* cancel) {
  if (data.empty()) throw std::invalid_argument("diffusion train: no data");
  const int L = cfg_.seq_len, d = cfg_.embed_dim;
  // Divergence guard: mirror the surrogate trainer — keep the last weights
  // known to produce a finite loss, and on a NaN/Inf iteration roll back,
  // halve the LR (fresh optimizer moments), and keep going.
  std::vector<Tensor> params = unet_->parameters();
  std::vector<nn::FloatBuf> last_good;
  last_good.reserve(params.size());
  for (const auto& p : params) last_good.push_back(p.impl()->data);
  auto opt = std::make_unique<nn::Adam>(unet_->parameters(), lr);
  TrainStats stats;
  double loss_avg = 0.0;
  int updates = 0;
  const int sample_every = std::max(1, iterations / 100);
  CLO_TRACE_SPAN("diffusion.train");
  obs::Progress progress(
      "diffusion_train",
      static_cast<std::uint64_t>(iterations > 0 ? iterations : 0));
  for (int it = 0; it < iterations; ++it) {
    if (cancel != nullptr) cancel->check();
    CLO_FAULT_POINT("diffusion.train_step");
    const int B = batch_size;
    Tensor x = Tensor::zeros({B, d, L});
    Tensor eps = Tensor::zeros({B, d, L});
    std::vector<int> ts(B);
    for (int b = 0; b < B; ++b) {
      const auto& x0 =
          data[rng.next_below(data.size())];           // j ~ Random(1, N)
      const int t = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(schedule_.num_steps())));  // t ~ Random
      ts[b] = t;
      const float sa = std::sqrt(schedule_.alpha_bar(t));
      const float sb = std::sqrt(1.0f - schedule_.alpha_bar(t));
      float* xb = x.data().data() + static_cast<std::size_t>(b) * d * L;
      to_channel_layout_into(x0.data(), L, d, xb);
      for (int i = 0; i < d * L; ++i) {
        const float e = static_cast<float>(rng.next_gaussian());
        eps.data()[b * d * L + i] = e;
        xb[i] = sa * xb[i] + sb * e;  // Eq. (10) inner
      }
    }
    Tensor pred = unet_->forward(x, ts);
    Tensor loss = nn::mse_loss(pred, eps);
    nn::backward(loss);
    double loss_val = loss.item();
    if (CLO_FAULT_FIRED("diffusion.loss_nan")) {
      loss_val = std::numeric_limits<double>::quiet_NaN();
    }
    if (!std::isfinite(loss_val)) {
      if (++stats.lr_backoffs > nn::kMaxLrBackoffs) {
        throw std::runtime_error(
            "diffusion train: diverged (non-finite loss after " +
            std::to_string(nn::kMaxLrBackoffs) + " LR backoffs)");
      }
      for (std::size_t p = 0; p < params.size(); ++p) {
        params[p].impl()->data = last_good[p];
      }
      lr *= 0.5f;
      opt = std::make_unique<nn::Adam>(unet_->parameters(), lr);
      opt->zero_grad();  // drop the non-finite gradients just accumulated
      CLO_OBS_COUNT("diffusion.lr_backoffs", 1);
      continue;
    }
    for (std::size_t p = 0; p < params.size(); ++p) {
      last_good[p] = params[p].impl()->data;
    }
    opt->step();
    // Zero-initialized EMA, bias-corrected so the early curve is not
    // dragged toward 0: after n updates the weights sum to 1 - 0.95^n.
    loss_avg = 0.95 * loss_avg + 0.05 * loss_val;
    ++updates;
    const double smoothed = loss_avg / (1.0 - std::pow(0.95, updates));
    stats.iterations = it + 1;
    stats.final_loss = smoothed;
    if (it % sample_every == 0 || it == iterations - 1) {
      stats.loss_curve.push_back(smoothed);
    }
    progress.tick();
    CLO_OBS_COUNT("diffusion.iterations", 1);
  }
  CLO_OBS_GAUGE("diffusion.final_loss", stats.final_loss);
  return stats;
}

std::vector<float> DiffusionModel::sample(clo::Rng& rng) {
  const int L = cfg_.seq_len, d = cfg_.embed_dim;
  std::vector<float> x(static_cast<std::size_t>(L) * d);
  for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  for (int t = schedule_.num_steps() - 1; t >= 0; --t) {
    const auto eps = predict_noise_batch({x}, t)[0];
    // x0-parameterized posterior step with clipping: reconstruct x̂0,
    // clamp it to the data range, and sample q(x_{t-1} | x_t, x̂0). The
    // clamp keeps small-model denoiser error from compounding across the
    // short schedule (standard "clip_denoised" practice).
    const float ab = schedule_.alpha_bar(t);
    const float sqrt_ab = std::sqrt(ab);
    const float sqrt_1mab = std::sqrt(1.0f - ab);
    const float c0 = schedule_.coef_x0(t);
    const float ct = schedule_.coef_xt(t);
    for (std::size_t i = 0; i < x.size(); ++i) {
      float x0 = (x[i] - sqrt_1mab * eps[i]) / sqrt_ab;
      x0 = std::min(3.0f, std::max(-3.0f, x0));  // data coords lie in [-sqrt(d), sqrt(d)]
      x[i] = c0 * x0 + ct * x[i];
      if (t > 0) {
        x[i] += schedule_.sigma(t) * static_cast<float>(rng.next_gaussian());
      }
    }
  }
  return x;
}

std::vector<std::vector<float>> DiffusionModel::predict_noise_batch(
    const std::vector<std::vector<float>>& xs, int t) {
  if (xs.empty()) return {};
  const int L = cfg_.seq_len, d = cfg_.embed_dim;
  const int R = static_cast<int>(xs.size());
  const std::size_t per = static_cast<std::size_t>(d) * L;
  nn::NoGradGuard no_grad;  // pure inference: skip the autograd graph
  Tensor x = Tensor::zeros({R, d, L});
  for (int r = 0; r < R; ++r) {
    if (xs[r].size() != per) {
      throw std::invalid_argument("predict_noise_batch: bad latent size");
    }
    to_channel_layout_into(xs[r].data(), L, d, x.data().data() + r * per);
  }
  Tensor eps = unet_->forward(x, std::vector<int>(xs.size(), t));
  std::vector<std::vector<float>> out(xs.size(),
                                      std::vector<float>(per));
  for (int r = 0; r < R; ++r) {
    from_channel_layout_into(eps.data().data() + r * per, L, d,
                             out[r].data());
  }
  return out;
}

}  // namespace clo::models
