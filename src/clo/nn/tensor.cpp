#include "clo/nn/tensor.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace clo::nn {
namespace {

std::size_t shape_numel(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d <= 0) throw std::invalid_argument("tensor dims must be positive");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

}  // namespace

Tensor Tensor::zeros(std::vector<int> shape, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data.assign(shape_numel(shape), 0.0f);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::full(std::vector<int> shape, float value, bool requires_grad) {
  Tensor t = zeros(std::move(shape), requires_grad);
  for (auto& v : t.data()) v = value;
  return t;
}

Tensor Tensor::randn(std::vector<int> shape, clo::Rng& rng, float stddev,
                     bool requires_grad) {
  Tensor t = zeros(std::move(shape), requires_grad);
  for (auto& v : t.data()) {
    v = static_cast<float>(rng.next_gaussian()) * stddev;
  }
  return t;
}

Tensor Tensor::from_data(std::vector<int> shape, std::vector<float> data,
                         bool requires_grad) {
  if (shape_numel(shape) != data.size()) {
    throw std::invalid_argument("from_data: shape/data size mismatch");
  }
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data.assign(data.begin(), data.end());
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return from_data({1}, {value}, requires_grad);
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < impl_->shape.size(); ++i) {
    if (i) os << ',';
    os << impl_->shape[i];
  }
  os << ']';
  return os.str();
}

void backward(const Tensor& root) {
  if (root.numel() != 1) {
    throw std::invalid_argument("backward: root must be scalar");
  }
  // Topological order over the dynamic graph.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, std::size_t>> stack;
  stack.emplace_back(root.impl().get(), 0);
  while (!stack.empty()) {
    auto& [node, next_parent] = stack.back();
    if (visited.count(node)) {
      stack.pop_back();
      continue;
    }
    if (next_parent < node->parents.size()) {
      TensorImpl* parent = node->parents[next_parent].get();
      ++next_parent;
      if (!visited.count(parent)) stack.emplace_back(parent, 0);
    } else {
      visited.insert(node);
      order.push_back(node);
      stack.pop_back();
    }
  }
  root.impl()->ensure_grad();
  root.impl()->grad[0] += 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn && node->grad.size() == node->data.size()) {
      node->backward_fn(*node);
      // Every consumer has already pushed into this grad (reverse
      // topological order), so an op output's grad is dead once it has
      // been passed on; releasing it bounds the pass's peak memory.
      FloatBuf().swap(node->grad);
    }
  }
}

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

bool grad_enabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : saved_(g_grad_enabled) { g_grad_enabled = false; }

NoGradGuard::~NoGradGuard() { g_grad_enabled = saved_; }

GradFreeze::GradFreeze(const std::vector<Tensor>& params) {
  impls_.reserve(params.size());
  saved_.reserve(params.size());
  for (const auto& p : params) {
    impls_.push_back(p.impl());
    saved_.push_back(p.impl()->requires_grad);
    p.impl()->requires_grad = false;
  }
}

GradFreeze::~GradFreeze() {
  for (std::size_t i = 0; i < impls_.size(); ++i) {
    impls_[i]->requires_grad = saved_[i];
  }
}

}  // namespace clo::nn
