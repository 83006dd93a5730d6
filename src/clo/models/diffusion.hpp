#pragma once
// DDPM diffusion model over sequence embeddings (Section III-C): a noise
// schedule and a 1-D U-Net denoiser eps_theta(x_t, t). Training follows
// Algorithm 1 (noise-prediction MSE, Eq. 10); the denoiser then drives
// both plain generation (Eq. 7) and the paper's guided optimization
// (Eq. 13, implemented in clo/core/optimizer).
//
// Note: the paper's Eq. 7 writes alpha_bar_t = sum alpha_s, a typo for the
// standard product form (Ho et al. [18]); we use the product.

#include <cmath>
#include <memory>
#include <vector>

#include "clo/nn/modules.hpp"
#include "clo/util/cancel.hpp"
#include "clo/util/rng.hpp"

namespace clo::models {

/// Precomputed beta/alpha tables for T steps (linear beta schedule).
class DdpmSchedule {
 public:
  DdpmSchedule(int num_steps, float beta_start = 1e-4f, float beta_end = 0.02f);

  int num_steps() const { return T_; }
  float beta(int t) const { return beta_[t]; }
  float alpha(int t) const { return alpha_[t]; }
  float alpha_bar(int t) const { return alpha_bar_[t]; }
  /// alpha_bar at t-1 (1 for t == 0).
  float alpha_bar_prev(int t) const { return t == 0 ? 1.0f : alpha_bar_[t - 1]; }
  /// Posterior std sigma_t = sqrt(beta~_t) (the tighter DDPM variance,
  /// important for short schedules).
  float sigma(int t) const { return sigma_[t]; }

  /// Posterior q(x_{t-1} | x_t, x0) mean coefficients:
  /// mean = coef_x0(t) * x0 + coef_xt(t) * x_t.
  float coef_x0(int t) const {
    return std::sqrt(alpha_bar_prev(t)) * beta_[t] / (1.0f - alpha_bar_[t]);
  }
  float coef_xt(int t) const {
    return std::sqrt(alpha_[t]) * (1.0f - alpha_bar_prev(t)) /
           (1.0f - alpha_bar_[t]);
  }

 private:
  int T_;
  std::vector<float> beta_, alpha_, alpha_bar_, sigma_;
};

struct DiffusionConfig {
  int seq_len = 20;       ///< L (must be divisible by 4 for the U-Net)
  int embed_dim = 8;      ///< d = channels
  int channels = 32;      ///< U-Net base width
  int time_dim = 32;      ///< timestep embedding width
  int num_steps = 500;    ///< T
};

/// 1-D U-Net noise predictor with FiLM-style timestep conditioning.
class DiffusionUNet : public nn::Module {
 public:
  DiffusionUNet(const DiffusionConfig& cfg, clo::Rng& rng);

  /// x: [B, d, L]; t: one timestep per batch row. Returns eps [B, d, L].
  nn::Tensor forward(const nn::Tensor& x, const std::vector<int>& t);

  std::vector<nn::Tensor> parameters() override;
  const DiffusionConfig& config() const { return cfg_; }

 private:
  DiffusionConfig cfg_;
  std::unique_ptr<nn::Linear> time1_, time2_;          // temb MLP
  std::unique_ptr<nn::Linear> film_in_, film_mid_;     // temb -> channel bias
  std::unique_ptr<nn::Conv1dLayer> in_conv_;
  std::unique_ptr<nn::Conv1dLayer> down1_, down2_, mid_;
  std::unique_ptr<nn::Conv1dLayer> up1_, up2_, out_conv_;
};

/// The diffusion model bundle: schedule + denoiser + training (Alg. 1) and
/// ancestral sampling (Eq. 7).
class DiffusionModel {
 public:
  DiffusionModel(const DiffusionConfig& cfg, clo::Rng& rng);

  const DdpmSchedule& schedule() const { return schedule_; }
  DiffusionUNet& unet() { return *unet_; }
  const DiffusionConfig& config() const { return cfg_; }

  struct TrainStats {
    int iterations = 0;
    /// Bias-corrected exponential moving average (decay 0.95) of the
    /// iteration loss at the last iteration.
    double final_loss = 0.0;
    /// The same smoothed loss sampled ~100 times across training (first
    /// and last iterations always included; the first point equals the
    /// first iteration's loss) — the loss-curve series surfaced by run
    /// reports.
    std::vector<double> loss_curve;
    /// Divergence recoveries: times a non-finite iteration loss triggered
    /// a rollback to the last good weights plus an LR halving. Training
    /// throws after nn::kMaxLrBackoffs of them.
    int lr_backoffs = 0;
  };

  /// Algorithm 1: train the denoiser on N flattened [L*d] sequences.
  /// `cancel` is polled once per iteration; a fired token aborts with
  /// util::CancelledError.
  TrainStats train(const std::vector<std::vector<float>>& data,
                   int iterations, int batch_size, float lr, clo::Rng& rng,
                   const util::CancelToken* cancel = nullptr);

  /// Unguided ancestral sampling (Eq. 7): returns a flattened [L*d] latent.
  std::vector<float> sample(clo::Rng& rng);

  /// One denoiser evaluation on R stacked flattened latents (no grad):
  /// a single [R, d, L] U-Net forward shared by every restart of the
  /// optimizer. Row r of the result is bit-identical to the same call on
  /// {xs[r]} alone — no op in the U-Net mixes batch rows.
  std::vector<std::vector<float>> predict_noise_batch(
      const std::vector<std::vector<float>>& xs, int t);

 private:
  DiffusionConfig cfg_;
  DdpmSchedule schedule_;
  std::unique_ptr<DiffusionUNet> unet_;
};

/// Layout transposes between one flattened [L*d] latent (position-major, as
/// produced by TransformEmbedding::embed) and one [d, L] row of the U-Net's
/// [B, d, L] input, written into caller-provided storage: each batch row is
/// transposed straight into its slice of one contiguous buffer.
void to_channel_layout_into(const float* flat, int L, int d, float* chan);
void from_channel_layout_into(const float* chan, int L, int d, float* flat);

}  // namespace clo::models
