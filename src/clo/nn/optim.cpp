#include "clo/nn/optim.hpp"

#include <cmath>

#include "clo/nn/kernel.hpp"

namespace clo::nn {

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  for (auto& p : params_) {
    m_.emplace_back(p.numel(), 0.0f);
    v_.emplace_back(p.numel(), 0.0f);
  }
}

void Adam::step() {
  ++step_count_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    kernel::adam_update(p.data().data(), m_[i].data(), v_[i].data(),
                        p.grad().data(), p.numel(), beta1_, beta2_, lr_, bc1,
                        bc2, eps_);
  }
  zero_grad();
}

void Adam::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

}  // namespace clo::nn
