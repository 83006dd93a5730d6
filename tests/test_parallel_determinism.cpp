// Determinism acceptance tests for the parallel substrate: dataset
// generation, surrogate training and latent optimization must be
// bit-identical at any worker count (including the serial null-pool
// path), the evaluator must tolerate concurrent callers, and concurrent
// synthesis runs must not slow each other down.

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "clo/circuits/generators.hpp"
#include "clo/core/dataset.hpp"
#include "clo/core/evaluator.hpp"
#include "clo/core/optimizer.hpp"
#include "clo/core/pipeline.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/models/embedding.hpp"
#include "clo/models/surrogate.hpp"
#include "clo/nn/serialize.hpp"
#include "clo/opt/transform.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/thread_pool.hpp"

namespace {

using namespace clo;

core::Dataset gen(util::ThreadPool* pool) {
  const aig::Aig g = circuits::make_benchmark("c432");
  core::QorEvaluator evaluator(g);
  clo::Rng rng(17);
  return core::generate_dataset(evaluator, 24, 12, rng, pool);
}

TEST(ParallelDeterminism, DatasetIdenticalAcrossThreadCounts) {
  const core::Dataset serial = gen(nullptr);
  util::ThreadPool pool8(8);
  const core::Dataset parallel = gen(&pool8);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.sequences[i], parallel.sequences[i]) << "sequence " << i;
    // Bit-identical labels, not just approximately equal.
    EXPECT_EQ(serial.qor[i].area_um2, parallel.qor[i].area_um2) << "row " << i;
    EXPECT_EQ(serial.qor[i].delay_ps, parallel.qor[i].delay_ps) << "row " << i;
  }
  EXPECT_EQ(serial.area_mean, parallel.area_mean);
  EXPECT_EQ(serial.delay_mean, parallel.delay_mean);
  EXPECT_EQ(serial.area_std, parallel.area_std);
  EXPECT_EQ(serial.delay_std, parallel.delay_std);
}

std::vector<core::OptimizeResult> run_restarts(util::ThreadPool* pool) {
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
  core::ContinuousOptimizer optimizer(*surrogate, diffusion, embedding);
  clo::Rng orng(23);
  return optimizer.run_restarts(orng, 6, pool);
}

TEST(ParallelDeterminism, OptimizerRestartsIdenticalAcrossThreadCounts) {
  const auto serial = run_restarts(nullptr);
  util::ThreadPool pool8(8);
  const auto parallel = run_restarts(&pool8);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].sequence, parallel[r].sequence) << "restart " << r;
    ASSERT_EQ(serial[r].latent.size(), parallel[r].latent.size());
    // The latents must match bit for bit, not within a tolerance.
    EXPECT_EQ(0, std::memcmp(serial[r].latent.data(),
                             parallel[r].latent.data(),
                             serial[r].latent.size() * sizeof(float)))
        << "restart " << r;
    EXPECT_EQ(serial[r].discrepancy, parallel[r].discrepancy);
    EXPECT_EQ(serial[r].predicted_objective, parallel[r].predicted_objective);
  }
}

TEST(ParallelDeterminism, EvaluatorSafeUnderConcurrentCallers) {
  const aig::Aig g = circuits::make_benchmark("c432");

  // Serial reference labels.
  std::vector<opt::Sequence> seqs;
  clo::Rng rng(99);
  for (int i = 0; i < 32; ++i) {
    seqs.push_back(opt::random_sequence(10, rng));
  }
  core::QorEvaluator ref(g);
  std::vector<core::Qor> expected;
  for (const auto& s : seqs) expected.push_back(ref.evaluate(s));

  // Concurrent evaluation, every sequence hit twice to exercise the cache.
  core::QorEvaluator ev(g);
  util::ThreadPool pool(8);
  std::vector<core::Qor> got(seqs.size() * 2);
  util::parallel_for(&pool, got.size(), [&](std::size_t i) {
    got[i] = ev.evaluate(seqs[i % seqs.size()]);
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].area_um2, expected[i % seqs.size()].area_um2);
    EXPECT_EQ(got[i].delay_ps, expected[i % seqs.size()].delay_ps);
  }
  const auto stats = ev.snapshot();
  EXPECT_EQ(stats.queries, got.size());
  // Single-flight misses: every distinct sequence synthesizes exactly once
  // no matter how many threads race on it; the rest are cache hits.
  EXPECT_EQ(stats.unique_runs, seqs.size());
  EXPECT_EQ(stats.cache_hits, got.size() - seqs.size());
  EXPECT_GT(stats.synth_seconds, 0.0);
}

TEST(ParallelDeterminism, EvaluatorSingleFlightOnOneHotKey) {
  const aig::Aig g = circuits::make_benchmark("c432");
  clo::Rng rng(7);
  const opt::Sequence seq = opt::random_sequence(10, rng);

  // 16 threads all miss the same key at once: exactly one may synthesize,
  // the other 15 must wait for its insert and answer from the cache.
  core::QorEvaluator ev(g);
  util::ThreadPool pool(16);
  std::vector<core::Qor> got(16);
  util::parallel_for(&pool, got.size(),
                     [&](std::size_t i) { got[i] = ev.evaluate(seq); });
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got[i].area_um2, got[0].area_um2);
    EXPECT_EQ(got[i].delay_ps, got[0].delay_ps);
  }
  const auto stats = ev.snapshot();
  EXPECT_EQ(stats.queries, got.size());
  EXPECT_EQ(stats.unique_runs, 1u);
  EXPECT_EQ(stats.cache_hits, got.size() - 1);
}

/// CPU seconds the calling thread has consumed so far.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Run `seq` `rounds` times, each on a private copy of `g`, and return
/// this thread's CPU seconds.
double synthesis_cpu_seconds(const aig::Aig& g, const opt::Sequence& seq,
                             int rounds) {
  const double before = thread_cpu_seconds();
  for (int r = 0; r < rounds; ++r) {
    aig::Aig copy = g;
    opt::run_sequence(copy, seq);
  }
  return thread_cpu_seconds() - before;
}

TEST(ParallelDeterminism, SynthesisCpuPerThreadDoesNotGrowWithThreads) {
  // Threads that share no data must not slow each other down: the same
  // synthesis run costs about the same CPU time alone as next to three
  // concurrent copies. A process-wide contended hot spot on the synthesis
  // path (such as a shared atomic bumped by every allocation) makes each
  // thread's CPU time grow with the thread count. CPU time, unlike wall
  // time, does not grow when the host has fewer free cores than threads,
  // so the gate does not depend on the machine's load.
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs at least 2 hardware threads";
  }
  // Rewriting and refactoring allocate at a high rate (per-cut truth
  // tables, synthesized candidates), so a contended allocation path shows
  // up here. The lone thread repeats the sequence until it has used 0.3 s
  // of CPU; each concurrent thread then runs as many rounds.
  const aig::Aig g = circuits::make_benchmark("c432");
  const opt::Sequence seq = opt::parse_sequence("rw;rf;rwz;rfz");
  synthesis_cpu_seconds(g, seq, 1);  // warm-up: page in the allocator's arenas

  int rounds = 0;
  double alone = 0.0;
  std::thread([&] {
    while (alone < 0.3) {
      alone += synthesis_cpu_seconds(g, seq, 1);
      ++rounds;
    }
  }).join();

  constexpr int kThreads = 4;
  std::vector<double> concurrent(kThreads, 0.0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back(
        [&, t] { concurrent[t] = synthesis_cpu_seconds(g, seq, rounds); });
  }
  for (auto& w : workers) w.join();
  std::sort(concurrent.begin(), concurrent.end());
  const double median = 0.5 * (concurrent[1] + concurrent[2]);
  EXPECT_LE(median, 2.0 * alone)
      << rounds << " rounds; alone " << alone << " s; concurrent "
      << concurrent[0] << " / " << concurrent[1] << " / " << concurrent[2]
      << " / " << concurrent[3] << " s";
}

/// Turns tracing + metrics on for one scope and restores the disabled
/// default afterwards, leaving no events behind for other tests.
struct ObsEnabledScope {
  ObsEnabledScope() { obs::set_enabled(true); }
  ~ObsEnabledScope() {
    obs::set_enabled(false);
    obs::reset_trace();
    obs::Registry::instance().reset();
  }
};

struct PipelineRun {
  core::PipelineResult result;
  std::string surrogate_bytes;  ///< nn::save_parameters of the surrogate
};

PipelineRun run_pipeline(int threads) {
  core::PipelineConfig config;
  config.dataset_size = 16;
  config.diffusion_steps = 8;
  config.diffusion_iters = 20;
  config.restarts = 2;
  config.surrogate_train.epochs = 8;
  config.threads = threads;
  core::QorEvaluator evaluator(circuits::make_benchmark("ctrl"));
  core::CloPipeline pipeline(config);
  PipelineRun run;
  run.result = pipeline.run(evaluator);
  std::ostringstream os;
  EXPECT_TRUE(nn::save_parameters(pipeline.surrogate()->parameters(), os));
  run.surrogate_bytes = os.str();
  return run;
}

TEST(ParallelDeterminism, SurrogateTrainingIdenticalAcrossThreadCounts) {
  const PipelineRun serial = run_pipeline(1);
  const PipelineRun pooled = run_pipeline(4);
  const core::TrainReport& a = serial.result.surrogate_report;
  const core::TrainReport& b = pooled.result.surrogate_report;
  EXPECT_EQ(a.train_mse, b.train_mse);
  EXPECT_EQ(a.holdout_mse, b.holdout_mse);
  EXPECT_EQ(a.spearman_area, b.spearman_area);
  EXPECT_EQ(a.spearman_delay, b.spearman_delay);
  EXPECT_EQ(a.epoch_loss, b.epoch_loss);
  EXPECT_EQ(a.lr_backoffs, b.lr_backoffs);
  ASSERT_FALSE(serial.surrogate_bytes.empty());
  EXPECT_TRUE(serial.surrogate_bytes == pooled.surrogate_bytes)
      << "saved surrogate parameters differ between 1 and 4 threads";
  EXPECT_EQ(serial.result.best_sequence, pooled.result.best_sequence);
}

TEST(ParallelDeterminism, InstrumentationDoesNotPerturbResults) {
  // Reference run with observability off (the default).
  const auto plain = run_restarts(nullptr);

  // Same computation with tracing + metrics recording on, in parallel.
  ObsEnabledScope scope;
  util::ThreadPool pool8(8);
  const auto traced = run_restarts(&pool8);

  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t r = 0; r < plain.size(); ++r) {
    EXPECT_EQ(plain[r].sequence, traced[r].sequence) << "restart " << r;
    ASSERT_EQ(plain[r].latent.size(), traced[r].latent.size());
    EXPECT_EQ(0, std::memcmp(plain[r].latent.data(), traced[r].latent.data(),
                             plain[r].latent.size() * sizeof(float)))
        << "restart " << r;
    EXPECT_EQ(plain[r].discrepancy, traced[r].discrepancy);
    EXPECT_EQ(plain[r].predicted_objective, traced[r].predicted_objective);
  }
#if !defined(CLO_OBS_DISABLE)
  // The instrumented run actually recorded spans and counters.
  EXPECT_GT(obs::trace_event_count(), 0u);
  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_GT(snap.counters.at("optimizer.denoise_steps"), 0u);
#endif
}

}  // namespace
