#pragma once
// Surrogate training (Eq. 2): minimize MSE between predicted and measured
// normalized QoR on the dataset, with a held-out split for fidelity
// reporting (Spearman rank correlation is what actually matters for
// optimization quality).

#include "clo/core/dataset.hpp"
#include "clo/models/embedding.hpp"
#include "clo/models/surrogate.hpp"

namespace clo::core {

struct TrainConfig {
  int epochs = 60;
  int batch_size = 32;
  float lr = 2e-3f;
  double holdout_fraction = 0.15;
};

struct TrainReport {
  double train_mse = 0.0;
  double holdout_mse = 0.0;
  double spearman_area = 0.0;
  double spearman_delay = 0.0;
  double seconds = 0.0;
  /// Per-epoch mean training loss, in epoch order (the loss-curve series
  /// surfaced by run reports).
  std::vector<double> epoch_loss;
  /// Divergence recoveries: times a non-finite batch loss triggered a
  /// rollback to the last good weights plus an LR halving. Training
  /// throws after nn::kMaxLrBackoffs of them.
  int lr_backoffs = 0;
};

/// Train `model` on the dataset with serial batched minibatches, so the
/// result is identical at any thread count.
/// `cancel` is polled once per minibatch; a fired token aborts training
/// with util::CancelledError (the model is abandoned by the caller, so no
/// partial-weight hazard).
TrainReport train_surrogate(models::SurrogateModel& model,
                            const models::TransformEmbedding& embedding,
                            const Dataset& dataset, const TrainConfig& config,
                            clo::Rng& rng,
                            const util::CancelToken* cancel = nullptr);

}  // namespace clo::core
