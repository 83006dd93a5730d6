#include <gtest/gtest.h>

#include <cmath>

#include "clo/circuits/generators.hpp"
#include "clo/core/dataset.hpp"
#include "clo/core/evaluator.hpp"
#include "clo/core/optimizer.hpp"
#include "clo/core/trainer.hpp"
#include "clo/core/tsne.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;

TEST(QorEvaluator, CachesSequences) {
  core::QorEvaluator ev(circuits::make_benchmark("ctrl"));
  const auto seq = opt::parse_sequence("b;rw");
  const auto q1 = ev.evaluate(seq);
  const auto runs = ev.snapshot().unique_runs;
  const auto q2 = ev.evaluate(seq);
  const auto stats = ev.snapshot();
  EXPECT_EQ(stats.unique_runs, runs);  // cache hit
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate, 0.5);
  EXPECT_DOUBLE_EQ(q1.area_um2, q2.area_um2);
  EXPECT_DOUBLE_EQ(q1.delay_ps, q2.delay_ps);
}

TEST(QorEvaluator, OriginalIsEmptySequence) {
  core::QorEvaluator ev(circuits::make_benchmark("c17"));
  const auto q = ev.original();
  // Near the paper's Table II c17 row (3.73 um^2 / 18.52 ps); our mapper
  // may pick a different equal-delay cover (see test_techmap).
  EXPECT_NEAR(q.area_um2, 3.73, 1.1);
  EXPECT_NEAR(q.delay_ps, 18.52, 2.0);
}

TEST(QorEvaluator, GoodSequencesBeatOriginal) {
  core::QorEvaluator ev(circuits::make_benchmark("sqrt"));
  const auto orig = ev.original();
  const auto opt_q =
      ev.evaluate(opt::parse_sequence("b;rw;rf;b;rw;rwz;b;rfz;rwz;b"));
  EXPECT_LT(opt_q.area_um2, orig.area_um2);
}

TEST(QorEvaluator, TracksSynthesisTime) {
  core::QorEvaluator ev(circuits::make_benchmark("router"));
  EXPECT_DOUBLE_EQ(ev.snapshot().synth_seconds, 0.0);
  ev.evaluate(opt::parse_sequence("rw;rf;rs"));
  EXPECT_GT(ev.snapshot().synth_seconds, 0.0);
  ev.reset_stats();
  const auto stats = ev.snapshot();
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.unique_runs, 0u);
  EXPECT_DOUBLE_EQ(stats.synth_seconds, 0.0);
  // The memo cache survives a stats reset: re-evaluating counts as a hit.
  ev.evaluate(opt::parse_sequence("rw;rf;rs"));
  EXPECT_EQ(ev.snapshot().cache_hits, 1u);
}

TEST(Dataset, GenerationAndNormalization) {
  core::QorEvaluator ev(circuits::make_benchmark("ctrl"));
  clo::Rng rng(1);
  const auto ds = core::generate_dataset(ev, 30, 10, rng);
  EXPECT_EQ(ds.size(), 30u);
  // Normalized labels have ~zero mean and ~unit variance.
  double mean = 0.0, var = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i) mean += ds.norm_area(i);
  mean /= ds.size();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    var += (ds.norm_area(i) - mean) * (ds.norm_area(i) - mean);
  }
  var /= ds.size();
  EXPECT_NEAR(mean, 0.0, 1e-3);
  EXPECT_NEAR(var, 1.0, 0.05);
  // Round trip through denormalization.
  EXPECT_NEAR(ds.denorm_area(ds.norm_area(3)), ds.qor[3].area_um2, 1e-6);
  EXPECT_NEAR(ds.denorm_delay(ds.norm_delay(3)), ds.qor[3].delay_ps, 1e-6);
}

TEST(Dataset, QorVariesAcrossSequences) {
  // The premise of surrogate learning: labels are not constant.
  core::QorEvaluator ev(circuits::make_benchmark("cavlc"));
  clo::Rng rng(2);
  const auto ds = core::generate_dataset(ev, 20, 10, rng);
  EXPECT_GT(ds.area_std, 1e-6);
}

TEST(Trainer, SurrogateLearnsToRank) {
  core::QorEvaluator ev(circuits::make_benchmark("cavlc"));
  clo::Rng rng(3);
  const auto ds = core::generate_dataset(ev, 120, 8, rng);
  models::TransformEmbedding emb(8, rng);
  models::SurrogateConfig scfg;
  scfg.seq_len = 8;
  auto model = models::make_surrogate("cnn", ev.circuit(), scfg, rng);
  core::TrainConfig tcfg;
  tcfg.epochs = 30;
  const auto report = core::train_surrogate(*model, emb, ds, tcfg, rng);
  EXPECT_LT(report.train_mse, 1.0);        // below predict-the-mean baseline
  EXPECT_GT(report.spearman_area, 0.25);   // ranks hold on the holdout
  EXPECT_GT(report.spearman_delay, 0.25);
}

TEST(Optimizer, ObjectiveAndGradFiniteAndClipped) {
  clo::Rng rng(4);
  const aig::Aig g = circuits::make_benchmark("ctrl");
  models::SurrogateConfig scfg;
  auto surrogate = models::make_surrogate("cnn", g, scfg, rng);
  models::DiffusionConfig dcfg;
  models::DiffusionModel diffusion(dcfg, rng);
  models::TransformEmbedding emb(8, rng);
  core::OptimizeParams params;
  params.grad_clip = 0.5;
  core::ContinuousOptimizer opt(*surrogate, diffusion, emb, params);
  std::vector<float> x(20 * 8);
  for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  std::vector<std::vector<float>> grads;
  const double obj = opt.objective_and_grad_batch({x}, &grads)[0];
  EXPECT_TRUE(std::isfinite(obj));
  ASSERT_EQ(grads.size(), 1u);
  ASSERT_EQ(grads[0].size(), x.size());
  double norm = 0.0;
  for (float gv : grads[0]) norm += static_cast<double>(gv) * gv;
  EXPECT_LE(std::sqrt(norm), 0.5 + 1e-4);
}

TEST(Optimizer, AblationModeRunsWithoutDiffusionQuality) {
  // Eq. 14 runs and produces much larger discrepancy than a trained
  // diffusion run would; here we only check the mechanics and the trace.
  clo::Rng rng(5);
  const aig::Aig g = circuits::make_benchmark("ctrl");
  models::SurrogateConfig scfg;
  auto surrogate = models::make_surrogate("cnn", g, scfg, rng);
  models::DiffusionConfig dcfg;
  dcfg.num_steps = 40;
  models::DiffusionModel diffusion(dcfg, rng);
  models::TransformEmbedding emb(8, rng);
  core::OptimizeParams params;
  params.use_diffusion = false;
  core::ContinuousOptimizer opt(*surrogate, diffusion, emb, params);
  const auto result = opt.run_restarts(rng, 1)[0];
  EXPECT_EQ(result.sequence.size(), 20u);
  EXPECT_EQ(result.latent.size(), 20u * 8u);
  EXPECT_FALSE(result.trace.empty());
  EXPECT_GT(result.discrepancy, 0.1);  // gradient-only stays off-manifold
}

TEST(Optimizer, TraceEndsAtFinalStepInBothBranches) {
  // Regression: both the diffusion branch (Eq. 13) and the ablation branch
  // (Eq. 14) must record the t == 0 trace point — Fig. 4 traces end at the
  // converged latent, not one subsample stride earlier.
  clo::Rng rng(6);
  const aig::Aig g = circuits::make_benchmark("ctrl");
  models::SurrogateConfig scfg;
  auto surrogate = models::make_surrogate("cnn", g, scfg, rng);
  models::DiffusionConfig dcfg;
  dcfg.num_steps = 40;
  models::DiffusionModel diffusion(dcfg, rng);
  models::TransformEmbedding emb(8, rng);
  for (const bool use_diffusion : {true, false}) {
    core::OptimizeParams params;
    params.use_diffusion = use_diffusion;
    core::ContinuousOptimizer opt(*surrogate, diffusion, emb, params);
    clo::Rng orng(31);
    const auto result = opt.run_restarts(orng, 1)[0];
    ASSERT_FALSE(result.trace.empty()) << "diffusion=" << use_diffusion;
    EXPECT_EQ(result.trace.back().t, 0) << "diffusion=" << use_diffusion;
    // Steps are traced in schedule order, strictly descending in t.
    for (std::size_t i = 1; i < result.trace.size(); ++i) {
      EXPECT_LT(result.trace[i].t, result.trace[i - 1].t);
    }
  }
}

TEST(Tsne, SeparatesClusters) {
  clo::Rng rng(6);
  std::vector<std::vector<float>> points;
  // Two well-separated 5-D clusters of 15 points each.
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 15; ++i) {
      std::vector<float> p(5);
      for (auto& v : p) {
        v = static_cast<float>(rng.next_gaussian()) * 0.1f + (c ? 5.0f : 0.0f);
      }
      points.push_back(std::move(p));
    }
  }
  core::TsneParams params;
  params.iterations = 250;
  const auto y = core::tsne(points, params, rng);
  ASSERT_EQ(y.size(), 30u);
  // Mean intra-cluster distance must be far below inter-cluster distance.
  auto dist = [&](int i, int j) {
    const double dx = y[i].first - y[j].first;
    const double dy = y[i].second - y[j].second;
    return std::sqrt(dx * dx + dy * dy);
  };
  double intra = 0.0, inter = 0.0;
  int ni = 0, nx = 0;
  for (int i = 0; i < 30; ++i) {
    for (int j = i + 1; j < 30; ++j) {
      if ((i < 15) == (j < 15)) {
        intra += dist(i, j);
        ++ni;
      } else {
        inter += dist(i, j);
        ++nx;
      }
    }
  }
  EXPECT_LT(intra / ni, 0.5 * inter / nx);
}

TEST(Tsne, RejectsTinyInput) {
  clo::Rng rng(7);
  std::vector<std::vector<float>> two(2, std::vector<float>(3, 0.0f));
  EXPECT_THROW(core::tsne(two, {}, rng), std::invalid_argument);
}

}  // namespace
