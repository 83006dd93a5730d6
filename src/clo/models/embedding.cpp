#include "clo/models/embedding.hpp"

#include <cmath>
#include <stdexcept>

#include "clo/nn/kernel.hpp"

namespace clo::models {

TransformEmbedding::TransformEmbedding(int dim, clo::Rng& rng) : dim_(dim) {
  if (dim < opt::kNumTransforms) {
    throw std::invalid_argument(
        "embedding dim must be >= number of transformations");
  }
  // Gram-Schmidt over random Gaussian vectors -> orthonormal, well
  // separated (pairwise distance sqrt(2)); keeps retrieval unambiguous.
  table_.assign(opt::kNumTransforms, std::vector<float>(dim, 0.0f));
  for (int t = 0; t < opt::kNumTransforms; ++t) {
    auto& v = table_[t];
    for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
    for (int u = 0; u < t; ++u) {
      float dot = 0.0f;
      for (int i = 0; i < dim; ++i) dot += v[i] * table_[u][i];
      for (int i = 0; i < dim; ++i) v[i] -= dot * table_[u][i];
    }
    float norm = 0.0f;
    for (float x : v) norm += x * x;
    norm = std::sqrt(norm);
    if (norm < 1e-6f) {
      throw std::runtime_error("degenerate embedding init");
    }
    for (auto& x : v) x /= norm;  // unit rows while orthogonalizing
  }
  // Scale rows to norm sqrt(dim) so each latent coordinate has ~unit
  // variance — matching the N(0, I) reference of the diffusion process
  // (the same reason latent-diffusion pipelines standardize latents).
  const float target = std::sqrt(static_cast<float>(dim));
  for (auto& v : table_) {
    for (auto& x : v) x *= target;
  }
}

TransformEmbedding::TransformEmbedding(std::vector<std::vector<float>> table)
    : dim_(table.empty() ? 0 : static_cast<int>(table.front().size())),
      table_(std::move(table)) {
  if (static_cast<int>(table_.size()) != opt::kNumTransforms) {
    throw std::invalid_argument("embedding table: wrong row count");
  }
  if (dim_ < opt::kNumTransforms) {
    throw std::invalid_argument(
        "embedding dim must be >= number of transformations");
  }
  for (const auto& row : table_) {
    if (static_cast<int>(row.size()) != dim_) {
      throw std::invalid_argument("embedding table: ragged rows");
    }
  }
}

std::vector<float> TransformEmbedding::embed(const opt::Sequence& seq) const {
  std::vector<float> out;
  out.reserve(seq.size() * dim_);
  for (opt::Transform t : seq) {
    const auto& v = of(t);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::vector<opt::Sequence> TransformEmbedding::retrieve_batch(
    const std::vector<std::vector<float>>& latents, int length,
    std::vector<double>* out_discrepancy) const {
  std::vector<opt::Sequence> seqs(latents.size(), opt::Sequence(length));
  if (out_discrepancy != nullptr) {
    out_discrepancy->assign(latents.size(), 0.0);
  }
  for (std::size_t r = 0; r < latents.size(); ++r) {
    double total = 0.0;
    for (int p = 0; p < length; ++p) {
      const float* point =
          latents[r].data() + static_cast<std::size_t>(p) * dim_;
      // First-lowest tie-break; distances go through kernel::sqdist, whose
      // fixed 8-lane reduction makes the winning row identical on both
      // dispatch targets (this scan decides every retrieved sequence, so
      // the dispatch target must not change it).
      int best = 0;
      float best_d2 = 1e30f;
      for (int t = 0; t < opt::kNumTransforms; ++t) {
        const float d2 = nn::kernel::sqdist(point, table_[t].data(), dim_);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = t;
        }
      }
      seqs[r][p] = static_cast<opt::Transform>(best);
      total += std::sqrt(static_cast<double>(best_d2));
    }
    if (out_discrepancy != nullptr) (*out_discrepancy)[r] = total / length;
  }
  return seqs;
}

}  // namespace clo::models
