#pragma once
// The optimizer both trainings use: Adam (Kingma & Ba), the optimizer the
// paper's surrogate (Eq. 2) and DDPM (Algorithm 1) trainings run with, and
// the divergence-backoff cap both trainers share.

#include <vector>

#include "clo/nn/tensor.hpp"

namespace clo::nn {

/// Divergence recoveries a trainer allows before it gives up: a non-finite
/// loss rolls the weights back to the last good copy and halves the
/// learning rate with a fresh Adam (train_surrogate and
/// DiffusionModel::train alike).
inline constexpr int kMaxLrBackoffs = 6;

class Adam {
 public:
  explicit Adam(std::vector<Tensor> params, float lr = 1e-3f,
                float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f);

  /// Apply one update from accumulated grads, then zero them.
  void step();
  void zero_grad();

 private:
  std::vector<Tensor> params_;
  std::vector<FloatBuf> m_, v_;
  float lr_, beta1_, beta2_, eps_;
  long step_count_ = 0;
};

}  // namespace clo::nn
