// Row-independence tests for the batched inference path: stacking R
// latents into one [R, d, L] U-Net forward / one [R, L*d] surrogate
// forward+backward must give every row exactly the bytes it gets alone.
// No op in either network mixes batch rows, so these are bitwise
// assertions. The optimizer relies on this twice: lockstep chunks of any
// size retrieve the same sequences (so results cannot depend on the pool
// size), and the tolerant driver re-runs a failed restart as a batch of
// one without changing its trajectory.

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "clo/circuits/generators.hpp"
#include "clo/core/optimizer.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/models/embedding.hpp"
#include "clo/models/surrogate.hpp"
#include "clo/util/rng.hpp"
#include "clo/util/thread_pool.hpp"

namespace {

using namespace clo;

std::vector<std::vector<float>> random_latents(int count, std::size_t size,
                                               std::uint64_t seed) {
  clo::Rng rng(seed);
  std::vector<std::vector<float>> xs(count, std::vector<float>(size));
  for (auto& x : xs) {
    for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  }
  return xs;
}

TEST(BatchedParity, PredictNoiseBatchMatchesPerSample) {
  clo::Rng rng(11);
  models::DiffusionConfig cfg;
  cfg.seq_len = 8;
  cfg.embed_dim = 4;
  cfg.channels = 8;
  cfg.num_steps = 12;
  models::DiffusionModel model(cfg, rng);
  const auto xs = random_latents(
      5, static_cast<std::size_t>(cfg.seq_len) * cfg.embed_dim, 21);

  for (const int t : {0, 5, cfg.num_steps - 1}) {
    const auto batched = model.predict_noise_batch(xs, t);
    ASSERT_EQ(batched.size(), xs.size());
    for (std::size_t r = 0; r < xs.size(); ++r) {
      const auto single = model.predict_noise_batch({xs[r]}, t);
      ASSERT_EQ(single.size(), 1u);
      EXPECT_EQ(batched[r], single[0]) << "t=" << t << " row " << r;
    }
  }
}

TEST(BatchedParity, ObjectiveAndGradBatchMatchesPerSample) {
  const aig::Aig g = circuits::make_benchmark("c17");
  for (const std::string kind : {"mtl", "lostin", "cnn"}) {
    clo::Rng rng(5);
    models::TransformEmbedding embedding(8, rng);
    models::SurrogateConfig scfg;
    scfg.seq_len = 8;
    auto surrogate = models::make_surrogate(kind, g, scfg, rng);
    models::DiffusionConfig dcfg;
    dcfg.seq_len = 8;
    dcfg.num_steps = 16;
    models::DiffusionModel diffusion(dcfg, rng);
    core::ContinuousOptimizer optimizer(*surrogate, diffusion, embedding);

    const auto xs = random_latents(
        6, static_cast<std::size_t>(dcfg.seq_len) * dcfg.embed_dim, 33);
    std::vector<std::vector<float>> grads;
    const auto objs = optimizer.objective_and_grad_batch(xs, &grads);
    const auto objs_nograd = optimizer.objective_and_grad_batch(xs, nullptr);
    ASSERT_EQ(objs.size(), xs.size());
    ASSERT_EQ(grads.size(), xs.size());
    // The inference-only path gives the same objective as the with-grad one.
    EXPECT_EQ(objs_nograd, objs) << kind;

    for (std::size_t r = 0; r < xs.size(); ++r) {
      std::vector<std::vector<float>> single_grads;
      const auto single =
          optimizer.objective_and_grad_batch({xs[r]}, &single_grads);
      ASSERT_EQ(single.size(), 1u);
      ASSERT_EQ(single_grads.size(), 1u);
      const auto single_nograd =
          optimizer.objective_and_grad_batch({xs[r]}, nullptr);
      EXPECT_EQ(objs[r], single[0]) << kind << " row " << r;
      EXPECT_EQ(grads[r], single_grads[0]) << kind << " row " << r;
      EXPECT_EQ(single_nograd[0], single[0]) << kind << " row " << r;
    }
  }
}

std::vector<core::OptimizeResult> run_restarts(util::ThreadPool* pool,
                                               bool use_diffusion) {
  const aig::Aig g = circuits::make_benchmark("c17");
  clo::Rng rng(5);
  models::TransformEmbedding embedding(8, rng);
  models::SurrogateConfig scfg;
  scfg.seq_len = 8;
  auto surrogate = models::make_surrogate("cnn", g, scfg, rng);
  models::DiffusionConfig dcfg;
  dcfg.seq_len = 8;
  dcfg.num_steps = 16;
  models::DiffusionModel diffusion(dcfg, rng);
  core::OptimizeParams params;
  params.use_diffusion = use_diffusion;
  core::ContinuousOptimizer optimizer(*surrogate, diffusion, embedding,
                                      params);
  clo::Rng orng(23);
  return optimizer.run_restarts(orng, 6, pool);
}

/// 6 restarts run as one lockstep chunk (no pool) against the same restarts
/// run on each of `pools`: 3 workers give chunks of two, 6 workers give six
/// batches of one. Every restart's latent, sequence and trace must be
/// bitwise identical to the lockstep run.
void expect_identical_to_lockstep(
    bool use_diffusion, std::initializer_list<util::ThreadPool*> pools) {
  const auto serial = run_restarts(nullptr, use_diffusion);
  ASSERT_EQ(serial.size(), 6u);
  for (util::ThreadPool* pool : pools) {
    const auto pooled = run_restarts(pool, use_diffusion);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t r = 0; r < serial.size(); ++r) {
      EXPECT_EQ(pooled[r].latent, serial[r].latent)
          << pool->size() << " workers, restart " << r;
      EXPECT_EQ(pooled[r].sequence, serial[r].sequence);
      EXPECT_EQ(pooled[r].discrepancy, serial[r].discrepancy);
      EXPECT_EQ(pooled[r].predicted_objective, serial[r].predicted_objective);
      ASSERT_EQ(pooled[r].trace.size(), serial[r].trace.size());
      for (std::size_t p = 0; p < serial[r].trace.size(); ++p) {
        EXPECT_EQ(pooled[r].trace[p].t, serial[r].trace[p].t);
        EXPECT_EQ(pooled[r].trace[p].discrepancy,
                  serial[r].trace[p].discrepancy);
        EXPECT_EQ(pooled[r].trace[p].predicted_objective,
                  serial[r].trace[p].predicted_objective);
      }
    }
  }
}

TEST(BatchedParity, RunRestartsChunksOfTwoMatchLockstep) {
  util::ThreadPool three(3);
  expect_identical_to_lockstep(/*use_diffusion=*/true, {&three});
}

TEST(BatchedParity, RunRestartsBatchesOfOneMatchLockstep) {
  util::ThreadPool six(6);
  expect_identical_to_lockstep(/*use_diffusion=*/true, {&six});
}

TEST(BatchedParity, RunRestartsAblationIdenticalAcrossPoolSizes) {
  util::ThreadPool three(3), six(6);
  expect_identical_to_lockstep(/*use_diffusion=*/false, {&three, &six});
}

}  // namespace
