// Golden fixture of the learning stack: the DDPM training of Algorithm 1,
// the surrogate training of Eq. 2 for every architecture, and the guided
// optimization of Algorithm 2 (with and without the diffusion term) must
// give the same bits as when the tables below were recorded. A refactor of
// the autograd ops, the optimizers or the restart driver that moves a
// single rounding shows up here as a changed weight hash, loss or
// retrieved sequence.
//
// The values pin libm's expf/tanhf (sigmoid, tanh, silu and softmax call
// them) as built by GCC 12.2 against glibc 2.36; another libm may round
// them differently and move every row.
//
// To re-record after an intended change of results, run the test: every
// mismatching row prints its current value in the table's format.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "clo/circuits/generators.hpp"
#include "clo/core/dataset.hpp"
#include "clo/core/evaluator.hpp"
#include "clo/core/optimizer.hpp"
#include "clo/core/trainer.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/models/embedding.hpp"
#include "clo/models/surrogate.hpp"
#include "clo/util/fault.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(float v) { add(std::uint64_t{std::bit_cast<std::uint32_t>(v)}); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t parameter_hash(nn::Module& m) {
  Fnv1a h;
  for (const auto& p : m.parameters()) {
    for (float v : p.data()) h.add(v);
  }
  return h.h;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The c17 dataset every surrogate and restart row is built from.
struct C17Data {
  core::QorEvaluator evaluator{circuits::make_benchmark("c17")};
  clo::Rng rng{7};
  core::Dataset dataset = core::generate_dataset(evaluator, 24, 8, rng);
  models::TransformEmbedding embedding{8, rng};
};

// ---- Algorithm 1 ------------------------------------------------------------

struct DiffusionRow {
  std::uint64_t parameters_fnv1a;
  std::uint64_t final_loss_bits;
  std::size_t loss_curve_points;
  std::uint64_t loss_curve_fnv1a;
};

std::string format(const DiffusionRow& r) {
  return "{" + hex(r.parameters_fnv1a) + ", " + hex(r.final_loss_bits) +
         ", " + std::to_string(r.loss_curve_points) + ", " +
         hex(r.loss_curve_fnv1a) + "}";
}

// clang-format off
const DiffusionRow kDiffusion = {0xf3df9d3c311525d1ULL, 0x3ff0beff3d590948ULL, 20, 0x3c82f795e86cb879ULL};
// clang-format on

TEST(GoldenLearning, DiffusionTraining) {
  models::DiffusionConfig cfg;
  cfg.seq_len = 8;
  cfg.embed_dim = 4;
  cfg.channels = 8;
  cfg.time_dim = 8;
  cfg.num_steps = 10;
  clo::Rng rng(11);
  models::DiffusionModel model(cfg, rng);
  std::vector<std::vector<float>> data(
      16, std::vector<float>(static_cast<std::size_t>(cfg.seq_len) *
                             cfg.embed_dim));
  for (auto& row : data) {
    for (auto& v : row) v = static_cast<float>(rng.next_gaussian());
  }
  const auto stats = model.train(data, 20, 4, 1e-2f, rng);
  ASSERT_EQ(stats.iterations, 20);
  Fnv1a curve;
  for (double v : stats.loss_curve) curve.add(v);
  const DiffusionRow got{parameter_hash(model.unet()), bits(stats.final_loss),
                         stats.loss_curve.size(), curve.h};
  EXPECT_EQ(format(got), format(kDiffusion));
}

// ---- Eq. 2 ------------------------------------------------------------------

struct SurrogateRow {
  const char* kind;
  std::uint64_t parameters_fnv1a;
  std::uint64_t train_mse_bits;
  std::uint64_t holdout_mse_bits;
};

std::string format(const SurrogateRow& r) {
  return std::string("{\"") + r.kind + "\", " + hex(r.parameters_fnv1a) +
         ", " + hex(r.train_mse_bits) + ", " + hex(r.holdout_mse_bits) + "}";
}

// clang-format off
const SurrogateRow kSurrogates[] = {
    {"mtl", 0x2f85b5ee1bab286eULL, 0x3f94a8594aaaaaabULL, 0x3f895800ef0a8090ULL},
    {"lostin", 0xbf0fb6057f060bb6ULL, 0x3f98ec3b2aaaaaabULL, 0x3fa05fa8eb6157d0ULL},
    {"cnn", 0x63c38f05a5a53f39ULL, 0x3fa4af58d0000000ULL, 0x3fb8481293d42ad4ULL},
};
// clang-format on

TEST(GoldenLearning, SurrogateTraining) {
  C17Data c17;
  for (const auto& want : kSurrogates) {
    clo::Rng rng(13);
    models::SurrogateConfig scfg;
    scfg.seq_len = 8;
    auto model = models::make_surrogate(want.kind, c17.evaluator.circuit(),
                                        scfg, rng);
    core::TrainConfig tcfg;
    tcfg.epochs = 3;
    tcfg.batch_size = 8;
    const auto report =
        core::train_surrogate(*model, c17.embedding, c17.dataset, tcfg, rng);
    const SurrogateRow got{want.kind, parameter_hash(*model),
                           bits(report.train_mse), bits(report.holdout_mse)};
    EXPECT_EQ(format(got), format(want));
  }
}

// ---- Algorithm 2 ------------------------------------------------------------

struct RestartRow {
  bool use_diffusion;
  int restart;
  const char* sequence;
  std::uint64_t latent_fnv1a;
  /// Every trace point's t, discrepancy and predicted objective.
  std::uint64_t trace_fnv1a;
  std::uint64_t discrepancy_bits;
  std::uint64_t predicted_objective_bits;
};

std::string format(const RestartRow& r) {
  return std::string("{") + (r.use_diffusion ? "true" : "false") + ", " +
         std::to_string(r.restart) + ", \"" + r.sequence + "\", " +
         hex(r.latent_fnv1a) + ", " + hex(r.trace_fnv1a) + ", " +
         hex(r.discrepancy_bits) + ", " + hex(r.predicted_objective_bits) +
         "}";
}

// clang-format off
const RestartRow kRestarts[] = {
    {true, 0, "rs;rs;rfz;rsz;rf;rf;rw;rsz", 0x59ff95456ca626fdULL, 0xa2d0f2d863822223ULL, 0x4013056d9079bfbcULL, 0xbf9a561100000000ULL},
    {true, 1, "b;rf;rs;rf;rs;rsz;rsz;rfz", 0x04c8fa379b1477b3ULL, 0x08ff3a13cc0b56b5ULL, 0x401396906e3e9fe0ULL, 0x3fb1b26340000000ULL},
    {true, 2, "rf;rs;rw;rwz;rs;rf;rs;rw", 0xb50ee5894350f574ULL, 0x6b4c66bbd8e1e6fcULL, 0x4015e10d98b55005ULL, 0xbfd313a280000000ULL},
    {true, 3, "rf;rwz;rw;rsz;rwz;rs;rfz;rwz", 0x76f60174d41d92c5ULL, 0xf14fc6367306fba3ULL, 0x40164958eb365a24ULL, 0x3fa9427480000000ULL},
    {false, 0, "rs;rw;rsz;rf;rs;rs;rs;rs", 0xac8aa10fb261cfa7ULL, 0x2e6cbf0a260ec8feULL, 0x4004fc180df95627ULL, 0xbfc019b5c0000000ULL},
    {false, 1, "rwz;rwz;rsz;rf;rsz;b;b;rsz", 0x681dab6692292e4fULL, 0x90253c4e0bc3b657ULL, 0x4004ddccd13599fbULL, 0xbfaa78d940000000ULL},
    {false, 2, "rwz;b;b;rwz;rf;rsz;rs;rfz", 0x6295780e758861d5ULL, 0xe0d7aa763c1a4689ULL, 0x40048e909af73609ULL, 0x3f76095100000000ULL},
    {false, 3, "rw;rw;b;rsz;rf;rfz;b;rwz", 0x58032af1c2668761ULL, 0x578771d3cb1028cdULL, 0x4005c69a1a58e9c5ULL, 0x3f91fa52c0000000ULL},
};
// clang-format on

/// A trained mtl surrogate (its backward runs sigmoid, tanh and softmax)
/// and a briefly trained U-Net over the c17 embedding.
struct RestartModels {
  C17Data c17;
  clo::Rng rng{17};
  std::unique_ptr<models::SurrogateModel> surrogate;
  std::unique_ptr<models::DiffusionModel> diffusion;

  RestartModels() {
    models::SurrogateConfig scfg;
    scfg.seq_len = 8;
    surrogate =
        models::make_surrogate("mtl", c17.evaluator.circuit(), scfg, rng);
    core::TrainConfig tcfg;
    tcfg.epochs = 2;
    tcfg.batch_size = 8;
    core::train_surrogate(*surrogate, c17.embedding, c17.dataset, tcfg, rng);
    models::DiffusionConfig dcfg;
    dcfg.seq_len = 8;
    dcfg.embed_dim = 8;
    dcfg.channels = 8;
    dcfg.time_dim = 8;
    dcfg.num_steps = 10;
    diffusion = std::make_unique<models::DiffusionModel>(dcfg, rng);
    std::vector<std::vector<float>> latents;
    for (const auto& seq : c17.dataset.sequences) {
      latents.push_back(c17.embedding.embed(seq));
    }
    diffusion->train(latents, 10, 4, 1e-3f, rng);
  }

  std::vector<core::OptimizeResult> run(
      bool use_diffusion,
      std::vector<core::ContinuousOptimizer::RestartFailure>* failures) {
    core::OptimizeParams params;
    params.use_diffusion = use_diffusion;
    core::ContinuousOptimizer optimizer(*surrogate, *diffusion, c17.embedding,
                                        params);
    clo::Rng orng(29);
    return optimizer.run_restarts(orng, 4, nullptr, failures);
  }
};

std::string format(bool use_diffusion, int restart,
                   const core::OptimizeResult& res) {
  Fnv1a latent, trace;
  for (float v : res.latent) latent.add(v);
  for (const auto& p : res.trace) {
    trace.add(static_cast<std::uint64_t>(p.t));
    trace.add(p.discrepancy);
    trace.add(p.predicted_objective);
  }
  const std::string seq = opt::sequence_to_string(res.sequence);
  return format(RestartRow{use_diffusion, restart, seq.c_str(), latent.h,
                           trace.h, bits(res.discrepancy),
                           bits(res.predicted_objective)});
}

TEST(GoldenLearning, Restarts) {
  RestartModels models;
  std::size_t row = 0;
  for (bool use_diffusion : {true, false}) {
    std::vector<core::ContinuousOptimizer::RestartFailure> failures;
    const auto results = models.run(use_diffusion, &failures);
    EXPECT_TRUE(failures.empty());
    ASSERT_EQ(results.size(), 4u);
    for (std::size_t r = 0; r < results.size(); ++r, ++row) {
      ASSERT_LT(row, std::size(kRestarts));
      EXPECT_EQ(format(use_diffusion, static_cast<int>(r), results[r]),
                format(kRestarts[row]));
    }
  }
}

// clang-format off
const RestartRow kRetried = {true, 0, "rwz;rwz;rf;rsz;rw;rwz;rsz;rsz", 0xffed32d49a89056aULL, 0x921153161a1cd14eULL, 0x4015de4956dbfcdbULL, 0xbfc49aff40000000ULL};
// clang-format on

TEST(GoldenLearning, RetriedRestartRunsOnItsForkedNoise) {
#if defined(CLO_FAULT_DISABLE)
  GTEST_SKIP() << "fault injection is compiled out";
#endif
  RestartModels models;
  // Restart 0 fails in the lockstep pass (the first hit of
  // optimizer.restart throws for its whole chunk) and again on its own
  // noise (the first hit of optimizer.latent_nan), so its result comes
  // from the fresh-noise retry on its forked Rng. Restarts 1..3 recover on
  // their own noise.
  util::fault::arm("optimizer.restart=1,optimizer.latent_nan=1");
  std::vector<core::ContinuousOptimizer::RestartFailure> failures;
  const auto results = models.run(true, &failures);
  util::fault::disarm();
  EXPECT_TRUE(failures.empty());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(format(true, 0, results[0]), format(kRetried));
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(format(true, r, results[r]), format(kRestarts[r]));
  }
}

}  // namespace
