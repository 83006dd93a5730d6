#pragma once
// The paper's contribution (Algorithm 2): continuous logic optimization in
// the embedding latent space. Starting from x_T ~ N(0, I), each step
// subtracts the diffusion model's predicted noise (pulling the latent onto
// the feasible-embedding manifold, minimizing H(x)) and the surrogate's
// QoR gradient evaluated at the noise-free reparameterization x̂_t
// (Eq. 12/13). On t = 0 the sequence is retrieved instantly by nearest-
// embedding decode (TransformEmbedding::retrieve_batch, which also gives
// every trace point's discrepancy). The ablation mode (Eq. 14) drops the
// diffusion term. run_restarts is the one driver: lockstep batched
// restarts with retry and quarantine of the ones that fail.

#include <memory>
#include <string>
#include <vector>

#include "clo/models/diffusion.hpp"
#include "clo/models/embedding.hpp"
#include "clo/models/surrogate.hpp"
#include "clo/opt/transform.hpp"
#include "clo/util/cancel.hpp"
#include "clo/util/rng.hpp"

namespace clo::util {
class ThreadPool;
}

namespace clo::obs {
class Progress;
}

namespace clo::core {

struct OptimizeParams {
  /// Objective weights over normalized QoR: F̂ = wa*area + wd*delay.
  double weight_area = 0.5;
  double weight_delay = 0.5;
  /// Guidance strength ω (Eq. 13).
  double omega = 2.0;
  /// Ramp the guidance in over the schedule (ω_t = ω (1 - t/T)): early
  /// steps denoise freely (x̂_t is unreliable there), late steps follow the
  /// surrogate hard. Disable to apply constant ω at every step.
  bool guidance_ramp = true;
  /// Clip the per-step QoR gradient to this L2 norm (stability).
  double grad_clip = 1.0;
  /// Eq. 14 ablation: optimize with the surrogate gradient only.
  bool use_diffusion = true;
  /// Step size for the no-diffusion ablation (Eq. 14).
  double ablation_step = 0.05;
};

struct OptimizeTracePoint {
  int t = 0;
  double discrepancy = 0.0;       ///< mean distance to nearest embedding
  double predicted_objective = 0.0;
};

struct OptimizeResult {
  opt::Sequence sequence;
  std::vector<float> latent;        ///< final x_0, flattened [L*d]
  double discrepancy = 0.0;
  double predicted_objective = 0.0; ///< F̂ at the final latent
  std::vector<OptimizeTracePoint> trace;
  double seconds = 0.0;             ///< pure optimization time (no synthesis)
};

class ContinuousOptimizer {
 public:
  ContinuousOptimizer(models::SurrogateModel& surrogate,
                      models::DiffusionModel& diffusion,
                      const models::TransformEmbedding& embedding,
                      OptimizeParams params = {});

  /// A restart that failed both its normal run and its fresh-noise retry,
  /// and was therefore quarantined (its result slot left default).
  struct RestartFailure {
    std::size_t index = 0;
    std::string message;
  };

  /// `count` independent runs of Algorithm 2 (the paper samples several
  /// latents and keeps the best after validation). Each restart's Gaussian
  /// draws are a fixed block of `rng`'s stream, blocks taken serially,
  /// restart by restart, before the compute fans out; `rng` ends just past
  /// the last block. Restarts then advance in lockstep through the
  /// schedule: one [chunk, d, L] U-Net forward and one [chunk, L*d]
  /// surrogate forward+backward per denoising step, one contiguous chunk
  /// per pool worker. No nn op mixes batch rows, so every restart's
  /// trajectory is the same pure function of its noise block in any
  /// chunking — results are bit-identical for any `pool` worker count,
  /// including the serial `pool == nullptr` path. Model weights are
  /// grad-frozen for the duration (restarts only read them), which makes
  /// the concurrent backward passes through the shared surrogate
  /// race-free.
  ///
  /// Failures are tolerated. A restart that throws (injected fault,
  /// synthesis error, or the non-finite-latent guard) is re-run serially
  /// as a batch of one on its original noise — which also recovers the
  /// innocent neighbors of a failed lockstep chunk without changing their
  /// trajectories — and, if it fails again, retried once on fresh noise
  /// from an Rng forked for that restart off a copy of `rng`'s final
  /// state. Restarts that still fail are quarantined: their slot in the
  /// returned vector stays default-constructed (empty sequence) and an
  /// entry is appended to `failures` when it is non-null. Survivors keep
  /// the exact sequences they would have produced with no failures
  /// present.
  ///
  /// `cancel` is polled once per denoising timestep; a fired token aborts
  /// every in-flight restart with util::CancelledError. Cancellation
  /// bypasses the retry/quarantine machinery — a cancelled run must
  /// surface as an error, never as a quarantined-but-cacheable result.
  std::vector<OptimizeResult> run_restarts(
      clo::Rng& rng, int count, util::ThreadPool* pool = nullptr,
      std::vector<RestartFailure>* failures = nullptr,
      const util::CancelToken* cancel = nullptr);

  /// Surrogate objective F̂ over R stacked latents: one [R, L*d] surrogate
  /// forward (+ one backward when `grads` is non-null, each row's gradient
  /// L2-clipped on its own). With `grads == nullptr` this is a pure
  /// inference query: no autograd graph is recorded at all. Rows never
  /// mix: element r equals the same call on {xs[r]} alone.
  std::vector<double> objective_and_grad_batch(
      const std::vector<std::vector<float>>& xs,
      std::vector<std::vector<float>>* grads);

 private:
  /// Gaussians one run consumes: L*d for the initial latent plus, in
  /// diffusion mode, L*d posterior-noise draws per step with t > 0.
  std::size_t noise_count() const;
  /// Algorithm 2 over restarts [begin, end) in lockstep: row r draws its
  /// Gaussians from a copy of noise[begin + r] (its block's start) and
  /// writes results[begin + r].
  void run_impl_batch(const std::vector<clo::Rng>& noise, std::size_t begin,
                      std::size_t end, std::vector<OptimizeResult>* results);
  /// RAII state of one run_restarts call.
  struct RestartScope;

  models::SurrogateModel& surrogate_;
  models::DiffusionModel& diffusion_;
  const models::TransformEmbedding& embedding_;
  OptimizeParams params_;
  /// Restart-loop progress ("progress.optimize" gauges). Installed by
  /// run_restarts for its duration and ticked
  /// once per denoising step by run_impl_batch; tick() is
  /// thread-safe, so the concurrent restarts share one reporter. Never
  /// read by the math — purely observational.
  obs::Progress* progress_ = nullptr;
  /// Cancellation token borrowed for the duration of run_restarts
  /// (same install/clear discipline as progress_)
  /// and polled per denoising timestep by run_impl_batch.
  /// Checks are pure reads: an unfired token cannot perturb results.
  const util::CancelToken* cancel_ = nullptr;
};

}  // namespace clo::core
