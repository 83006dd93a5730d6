#include "clo/core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "clo/nn/ops.hpp"
#include "clo/util/fault.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/thread_pool.hpp"
#include "clo/util/timer.hpp"

namespace clo::core {

using nn::Tensor;

namespace {

/// Clip a gradient to L2 norm `max_norm` — keeps the guidance term
/// well-scaled vs the noise term. Applied per restart, so batching cannot
/// change the clip.
void clip_gradient(std::vector<float>* grad, double max_norm) {
  double norm2 = 0.0;
  for (float g : *grad) norm2 += static_cast<double>(g) * g;
  const double norm = std::sqrt(norm2);
  if (norm > max_norm && norm > 0.0) {
    const float s = static_cast<float>(max_norm / norm);
    for (auto& g : *grad) g *= s;
  }
}

/// The non-finite-latent guard: a NaN/Inf latent would silently decode to
/// a garbage nearest-embedding sequence, so surface it as a failure the
/// restart driver can retry instead.
void check_latent_finite(const std::vector<float>& x) {
  for (float v : x) {
    if (!std::isfinite(v)) {
      throw std::runtime_error("optimizer: non-finite latent after denoising");
    }
  }
}

/// The noise stream of each of `count` runs: `rng` as it stands at the
/// first of the run's `per_run` Gaussians. Runs own consecutive blocks of
/// the stream, restart by restart (the Box-Muller cache carries across
/// blocks), so each trajectory is a pure function of its block, and
/// neither the pool size nor the lockstep chunking can change it. Only
/// the block starts are kept, not the R * T * L * d draws themselves:
/// each run redraws its block as it consumes it.
std::vector<clo::Rng> noise_streams(clo::Rng& rng, int count,
                                    std::size_t per_run) {
  std::vector<clo::Rng> starts;
  starts.reserve(static_cast<std::size_t>(std::max(count, 0)));
  for (int r = 0; r < count; ++r) {
    starts.push_back(rng);
    for (std::size_t i = 0; i < per_run; ++i) rng.next_gaussian();
  }
  return starts;
}

/// One lockstep chunk per pool worker: chunk c covers restarts
/// [lo(c), hi(c)). Chunk composition cannot change the numbers: no nn op
/// mixes batch rows, so each restart's trajectory is the same in any
/// chunking, from one chunk of every restart down to a batch of one.
struct Chunking {
  std::size_t count;
  std::size_t chunks;
  Chunking(util::ThreadPool* pool, int n)
      : count(static_cast<std::size_t>(std::max(n, 0))),
        chunks(std::min(pool != nullptr ? pool->size() : 1, count)) {}
  std::size_t lo(std::size_t c) const { return c * count / chunks; }
  std::size_t hi(std::size_t c) const { return lo(c + 1); }
};

}  // namespace

/// What one run_restarts call holds for its duration. Restarts only read
/// the model weights; freezing them keeps the backward passes in
/// objective_and_grad_batch off the shared grad buffers (neither
/// concurrently across workers nor cumulatively across lockstep steps).
/// The progress reporter and the cancellation token are lent to the
/// optimizer's slots, which are cleared again on scope exit so they can
/// never dangle, even when a restart throws.
struct ContinuousOptimizer::RestartScope {
  ContinuousOptimizer& opt;
  nn::GradFreeze freeze;
  obs::Progress progress;

  RestartScope(ContinuousOptimizer& o, int count,
               const util::CancelToken* cancel)
      : opt(o),
        freeze(model_parameters(o)),
        progress("optimize", denoise_steps(o, count)) {
    opt.progress_ = &progress;
    opt.cancel_ = cancel;
  }
  ~RestartScope() {
    opt.progress_ = nullptr;
    opt.cancel_ = nullptr;
  }
  RestartScope(const RestartScope&) = delete;
  RestartScope& operator=(const RestartScope&) = delete;

  static std::vector<Tensor> model_parameters(ContinuousOptimizer& opt) {
    auto params = opt.surrogate_.parameters();
    auto unet = opt.diffusion_.unet().parameters();
    params.insert(params.end(), unet.begin(), unet.end());
    return params;
  }

  static std::uint64_t denoise_steps(const ContinuousOptimizer& opt,
                                     int count) {
    const auto per_run =
        static_cast<std::uint64_t>(opt.diffusion_.schedule().num_steps());
    return per_run * static_cast<std::uint64_t>(std::max(count, 0));
  }
};

ContinuousOptimizer::ContinuousOptimizer(
    models::SurrogateModel& surrogate, models::DiffusionModel& diffusion,
    const models::TransformEmbedding& embedding, OptimizeParams params)
    : surrogate_(surrogate), diffusion_(diffusion), embedding_(embedding),
      params_(params) {}

std::vector<double> ContinuousOptimizer::objective_and_grad_batch(
    const std::vector<std::vector<float>>& xs,
    std::vector<std::vector<float>>* grads) {
  if (xs.empty()) return {};
  const int R = static_cast<int>(xs.size());
  const int n = static_cast<int>(xs[0].size());
  std::vector<float> stacked;
  stacked.reserve(static_cast<std::size_t>(R) * n);
  for (const auto& x : xs) stacked.insert(stacked.end(), x.begin(), x.end());
  const float wa = static_cast<float>(params_.weight_area);
  const float wd = static_cast<float>(params_.weight_delay);

  if (grads == nullptr) {
    nn::NoGradGuard no_grad;
    Tensor input = Tensor::from_data({R, n}, std::move(stacked));
    auto out = surrogate_.forward(input);
    std::vector<double> objs(R);
    for (int r = 0; r < R; ++r) {
      objs[r] = wa * out.area.data()[r] + wd * out.delay.data()[r];
    }
    return objs;
  }

  Tensor input =
      Tensor::from_data({R, n}, std::move(stacked), /*requires_grad=*/true);
  auto out = surrogate_.forward(input);
  // Per-row objective values: wa*area then + wd*delay, in float.
  std::vector<double> objs(R);
  for (int r = 0; r < R; ++r) {
    objs[r] = wa * out.area.data()[r] + wd * out.delay.data()[r];
  }
  // One backward from the sum of row objectives. Rows are independent
  // (no op mixes batch rows), so each input row's gradient equals its own
  // single-restart gradient: the sum merely seeds every row with the same
  // d(total)/d(row objective) = 1.
  Tensor total = nn::add(nn::scale(nn::sum_all(out.area), wa),
                         nn::scale(nn::sum_all(out.delay), wd));
  nn::backward(total);
  const auto& g = input.grad();
  grads->assign(R, std::vector<float>(n));
  for (int r = 0; r < R; ++r) {
    std::copy(g.begin() + static_cast<std::ptrdiff_t>(r) * n,
              g.begin() + static_cast<std::ptrdiff_t>(r + 1) * n,
              (*grads)[r].begin());
    clip_gradient(&(*grads)[r], params_.grad_clip);
  }
  return objs;
}

std::size_t ContinuousOptimizer::noise_count() const {
  const auto& cfg = diffusion_.config();
  const std::size_t elems =
      static_cast<std::size_t>(cfg.seq_len) * cfg.embed_dim;
  if (!params_.use_diffusion) return elems;
  return elems * diffusion_.schedule().num_steps();
}

void ContinuousOptimizer::run_impl_batch(
    const std::vector<clo::Rng>& noise, std::size_t begin, std::size_t end,
    std::vector<OptimizeResult>* results) {
  CLO_TRACE_SPAN("optimize.batch");
  Stopwatch watch;
  watch.start();
  const auto& cfg = diffusion_.config();
  const int L = cfg.seq_len, d = cfg.embed_dim;
  const auto& sched = diffusion_.schedule();
  const int T = sched.num_steps();
  const std::size_t R = end - begin;
  const std::size_t elems = static_cast<std::size_t>(L) * d;

  std::vector<clo::Rng> rng(noise.begin() + begin, noise.begin() + end);
  std::vector<std::vector<float>> x(R, std::vector<float>(elems));
  for (std::size_t r = 0; r < R; ++r) {
    CLO_FAULT_POINT("optimizer.restart");
    for (auto& v : x[r]) v = static_cast<float>(rng[r].next_gaussian());
    if (CLO_FAULT_FIRED("optimizer.latent_nan")) {
      x[r][0] = std::numeric_limits<float>::quiet_NaN();
    }
  }

  std::vector<std::vector<float>> grads;
  std::vector<std::vector<OptimizeTracePoint>> traces(R);
  // About 16 trace points per run, the last at t = 0.
  auto trace_step = [&](int t, const std::vector<double>& objs) {
    if (t % std::max(1, T / 16) != 0 && t != 0) return;
    std::vector<double> disc;
    embedding_.retrieve_batch(x, L, &disc);
    for (std::size_t r = 0; r < R; ++r) {
      traces[r].push_back({t, disc[r], objs[r]});
    }
  };

  if (!params_.use_diffusion) {
    // Eq. 14 in lockstep: one [R, L*d] surrogate forward+backward per step.
    for (int t = T - 1; t >= 0; --t) {
      CLO_TRACE_SPAN("optimize.step");
      CLO_OBS_COUNT("optimizer.denoise_steps", R);
      if (progress_ != nullptr) progress_->tick(R);
      if (cancel_ != nullptr) cancel_->check();
      const auto objs = objective_and_grad_batch(x, &grads);
      const float step =
          static_cast<float>(params_.ablation_step * params_.omega);
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t i = 0; i < elems; ++i) x[r][i] -= step * grads[r][i];
      }
      trace_step(t, objs);
    }
  } else {
    // Eq. 13 in lockstep: one [R, d, L] U-Net forward and one [R, L*d]
    // surrogate forward+backward per denoising step, shared by every
    // restart.
    std::vector<std::vector<float>> x_hat(R, std::vector<float>(elems));
    for (int t = T - 1; t >= 0; --t) {
      CLO_TRACE_SPAN("optimize.step");
      CLO_OBS_COUNT("optimizer.denoise_steps", R);
      if (progress_ != nullptr) progress_->tick(R);
      if (cancel_ != nullptr) cancel_->check();
      const auto eps = diffusion_.predict_noise_batch(x, t);
      const float ab = sched.alpha_bar(t);
      const float sqrt_ab = std::sqrt(ab);
      const float sqrt_1mab = std::sqrt(1.0f - ab);
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t i = 0; i < elems; ++i) {
          x_hat[r][i] = (x[r][i] - sqrt_1mab * eps[r][i]) / sqrt_ab;
        }
      }
      const auto objs = objective_and_grad_batch(x_hat, &grads);
      const float c0 = sched.coef_x0(t);
      const float ct = sched.coef_xt(t);
      const double omega_t =
          params_.guidance_ramp
              ? params_.omega * (1.0 - static_cast<double>(t) / T)
              : params_.omega;
      const float guide = static_cast<float>(omega_t) * sqrt_1mab;
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t i = 0; i < elems; ++i) {
          const float eps_tilde = eps[r][i] + guide * grads[r][i];
          float x0 = (x[r][i] - sqrt_1mab * eps_tilde) / sqrt_ab;
          x0 = std::min(3.0f, std::max(-3.0f, x0));
          x[r][i] = c0 * x0 + ct * x[r][i];
          if (t > 0) {
            x[r][i] +=
                sched.sigma(t) * static_cast<float>(rng[r].next_gaussian());
          }
        }
      }
      trace_step(t, objs);
    }
  }

  // A single poisoned row cannot contaminate its neighbors (no nn op mixes
  // batch rows), but it must still abort the chunk: run_restarts
  // re-runs the chunk's restarts individually to sort good from bad.
  for (std::size_t r = 0; r < R; ++r) check_latent_finite(x[r]);

  // Batched finalize: one table scan retrieves sequence + discrepancy,
  // one inference-only surrogate forward predicts every restart's F̂.
  std::vector<double> disc;
  auto seqs = embedding_.retrieve_batch(x, L, &disc);
  const auto preds = objective_and_grad_batch(x, nullptr);
  watch.stop();
  // Lockstep restarts share the wall clock; attribute an equal slice to
  // each so that summing per-restart seconds still yields the batch's
  // total wall time (the Fig. 5 accounting).
  const double per_run_seconds = watch.seconds() / static_cast<double>(R);
  for (std::size_t r = 0; r < R; ++r) {
    OptimizeResult& res = (*results)[begin + r];
    res.latent = std::move(x[r]);
    res.sequence = std::move(seqs[r]);
    res.discrepancy = disc[r];
    res.predicted_objective = preds[r];
    res.trace = std::move(traces[r]);
    res.seconds = per_run_seconds;
    CLO_OBS_OBSERVE("optimizer.discrepancy", res.discrepancy);
    CLO_OBS_OBSERVE("optimizer.predicted_objective",
                    res.predicted_objective);
    CLO_OBS_OBSERVE("optimizer.restart_seconds", res.seconds);
  }
}

std::vector<OptimizeResult> ContinuousOptimizer::run_restarts(
    clo::Rng& rng, int count, util::ThreadPool* pool,
    std::vector<RestartFailure>* failures, const util::CancelToken* cancel) {
  // The noise blocks leave `rng` just past the last one. The retry Rngs
  // are forked from a copy of that state (a fork depends only on the
  // state), so the caller's stream never sees them and they change nothing
  // unless a retry happens.
  const auto noise = noise_streams(rng, count, noise_count());
  clo::Rng retry_parent = rng;
  std::vector<clo::Rng> retry_rng;
  retry_rng.reserve(count);
  for (int r = 0; r < count; ++r) retry_rng.push_back(retry_parent.fork());

  RestartScope scope(*this, count, cancel);
  const Chunking chunking(pool, count);
  std::vector<OptimizeResult> results(count);
  std::vector<char> pending(count, 0);
  const auto chunk_errors =
      util::parallel_for_collect(pool, chunking.chunks, [&](std::size_t c) {
        run_impl_batch(noise, chunking.lo(c), chunking.hi(c), &results);
      });
  for (const auto& e : chunk_errors) {
    // A chunk failure poisons every restart sharing the chunk; most are
    // innocent and recover bit-identically in the batch-of-one pass below.
    for (std::size_t r = chunking.lo(e.index); r < chunking.hi(e.index); ++r) {
      pending[r] = 1;
    }
  }

  // Cancellation bypasses recovery entirely: the parallel pass above may
  // have marked every restart pending (each worker threw CancelledError),
  // and retrying/quarantining them would fabricate an all-quarantined
  // "result" that a caller could cache. Surface the cancellation instead.
  if (cancel != nullptr) cancel->check();

  // Serial recovery, one restart at a time as a batch of one: original
  // noise first (recovers chunk neighbors and one-shot faults without
  // changing any trajectory), then one fresh-noise retry from the
  // restart's own pre-forked Rng (the escape hatch for a latent that
  // deterministically goes non-finite). Still failing -> quarantine.
  for (int r = 0; r < count; ++r) {
    if (!pending[r]) continue;
    try {
      run_impl_batch(noise, r, r + 1, &results);
      continue;
    } catch (const util::CancelledError&) {
      throw;  // never quarantine a cancellation
    } catch (const std::exception&) {
      // Fall through to the fresh-noise retry.
    }
    try {
      std::vector<OptimizeResult> retried(1);
      run_impl_batch({retry_rng[r]}, 0, 1, &retried);
      results[r] = std::move(retried[0]);
      CLO_OBS_COUNT("optimizer.restart_retries", 1);
    } catch (const util::CancelledError&) {
      throw;  // never quarantine a cancellation
    } catch (const std::exception& e) {
      results[r] = OptimizeResult{};
      if (failures != nullptr) {
        failures->push_back({static_cast<std::size_t>(r), e.what()});
      }
      CLO_OBS_COUNT("optimizer.quarantined_restarts", 1);
    }
  }
  return results;
}

}  // namespace clo::core
