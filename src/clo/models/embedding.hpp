#pragma once
// The sequence embedding g(.) of the paper: each transformation in S maps
// to a point in R^d. The diffusion model learns the distribution of
// sequences of these points; retrieval maps optimized latents back to the
// nearest transformation per position (Section III-D — instant because the
// denoising process keeps latents on the embedding manifold). embed() is
// the one way in and retrieve_batch() the one way out: a single table scan
// per position decodes the sequence and measures its discrepancy.

#include <vector>

#include "clo/opt/transform.hpp"
#include "clo/util/rng.hpp"

namespace clo::models {

class TransformEmbedding {
 public:
  /// Fixed, well-separated embeddings: random Gaussian directions that are
  /// orthogonalized (d >= |S| = 7) then scaled to norm sqrt(dim), giving
  /// each latent coordinate ~unit variance (diffusion-friendly).
  TransformEmbedding(int dim, clo::Rng& rng);

  /// Restore from a saved table (checkpoint resume): the rows must match
  /// kNumTransforms and share one dimension >= kNumTransforms. No rng is
  /// consumed, so a resumed run sees the exact embedding geometry of the
  /// interrupted one.
  explicit TransformEmbedding(std::vector<std::vector<float>> table);

  int dim() const { return dim_; }

  /// Embedding vector of one transformation.
  const std::vector<float>& of(opt::Transform t) const {
    return table_[static_cast<int>(t)];
  }

  /// Flattened [L * dim] embedding of a sequence.
  std::vector<float> embed(const opt::Sequence& seq) const;

  /// Decode flattened [length * dim] latents back to sequences: each
  /// position becomes its nearest transformation. When `out_discrepancy`
  /// is non-null, element r receives latent r's mean Euclidean distance
  /// from each position to that nearest embedding — the paper's
  /// discrepancy H(x) proxy, reported in the Fig. 7 experiment and traced
  /// by the optimizer.
  std::vector<opt::Sequence> retrieve_batch(
      const std::vector<std::vector<float>>& latents, int length,
      std::vector<double>* out_discrepancy = nullptr) const;

  /// All 7 embedding rows (for t-SNE plots).
  const std::vector<std::vector<float>>& table() const { return table_; }

 private:
  int dim_;
  std::vector<std::vector<float>> table_;
};

}  // namespace clo::models
