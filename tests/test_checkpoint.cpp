// Checkpoint/resume tests: CRC-32 vectors, the CLOCKPT1 container's
// round-trip and rejection behavior (bit flips, truncation, config
// mismatch, injected I/O faults), and the acceptance criteria from the
// fault-tolerance work — a killed pipeline resumes to a bit-identical
// best sequence, and a quarantined restart never changes the survivors.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "clo/circuits/generators.hpp"
#include "clo/core/checkpoint.hpp"
#include "clo/core/optimizer.hpp"
#include "clo/core/pipeline.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/models/embedding.hpp"
#include "clo/models/surrogate.hpp"
#include "clo/util/crc32.hpp"
#include "clo/util/fault.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;
namespace fault = clo::util::fault;
namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }

  /// Fresh empty directory under the test temp dir.
  static std::string fresh_dir(const std::string& name) {
    const std::string dir = testing::TempDir() + "/" + name;
    fs::remove_all(dir);
    return dir;
  }
};

// ---- CRC-32 -------------------------------------------------------------

TEST(Crc32, MatchesKnownVectors) {
  // The IEEE 802.3 check value every CRC-32 implementation must hit.
  const std::string check = "123456789";
  EXPECT_EQ(util::crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(util::crc32("", 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = util::crc32(data.data(), data.size());
  std::uint32_t crc = 0;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, data.size() - i);
    crc = util::crc32_update(crc, data.data() + i, n);
  }
  EXPECT_EQ(crc, whole);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::string data = "checkpoint payload bytes";
  const std::uint32_t good = util::crc32(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x10;
    EXPECT_NE(util::crc32(data.data(), data.size()), good) << "byte " << i;
    data[i] ^= 0x10;
  }
}

// ---- ConfigHasher -------------------------------------------------------

TEST(ConfigHasher, SensitiveToEveryInputAndItsFraming) {
  const auto digest = [](auto&&... vs) {
    core::ConfigHasher h;
    (h.add(vs), ...);
    return h.hash();
  };
  EXPECT_EQ(digest(std::uint64_t{7}, 0.5), digest(std::uint64_t{7}, 0.5));
  EXPECT_NE(digest(std::uint64_t{7}, 0.5), digest(std::uint64_t{8}, 0.5));
  EXPECT_NE(digest(std::uint64_t{7}, 0.5), digest(std::uint64_t{7}, 0.25));
  // Strings are length-framed: ("ab","c") must not collide with ("a","bc").
  EXPECT_NE(digest(std::string("ab"), std::string("c")),
            digest(std::string("a"), std::string("bc")));
  // Order matters.
  EXPECT_NE(digest(std::uint64_t{1}, std::uint64_t{2}),
            digest(std::uint64_t{2}, std::uint64_t{1}));
}

// ---- CLOCKPT1 container -------------------------------------------------

core::DatasetCheckpoint sample_dataset_checkpoint() {
  clo::Rng rng(17);
  core::DatasetCheckpoint c;
  c.original = {123.5, 456.25};
  c.embedding_table = models::TransformEmbedding(8, rng).table();
  for (int i = 0; i < 5; ++i) {
    opt::Sequence seq;
    for (int j = 0; j < 6; ++j) {
      seq.push_back(
          static_cast<opt::Transform>((i + j) % opt::kNumTransforms));
    }
    c.dataset.sequences.push_back(seq);
    c.dataset.qor.push_back({100.0 + i, 200.0 + i});
  }
  c.dataset.area_mean = 102.0;
  c.dataset.area_std = 1.5;
  c.dataset.delay_mean = 202.0;
  c.dataset.delay_std = 1.5;
  c.seconds = 3.25;
  rng.next_gaussian();  // populate the cached-gaussian half of the state
  c.rng = rng.state();
  return c;
}

void expect_rng_state_eq(const clo::Rng::State& a, const clo::Rng::State& b) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]);
  EXPECT_EQ(a.has_cached_gaussian, b.has_cached_gaussian);
  EXPECT_DOUBLE_EQ(a.cached_gaussian, b.cached_gaussian);
}

TEST_F(CheckpointTest, DatasetRoundTripIsExact) {
  core::CheckpointManager mgr(fresh_dir("ckpt_dataset"), 0xabcdefULL);
  const auto saved = sample_dataset_checkpoint();
  ASSERT_TRUE(mgr.save_dataset(saved));
  EXPECT_FALSE(fs::exists(mgr.path_for("dataset") + ".tmp"));

  core::DatasetCheckpoint loaded;
  ASSERT_TRUE(mgr.load_dataset(&loaded));
  EXPECT_DOUBLE_EQ(loaded.original.area_um2, saved.original.area_um2);
  EXPECT_DOUBLE_EQ(loaded.original.delay_ps, saved.original.delay_ps);
  EXPECT_EQ(loaded.embedding_table, saved.embedding_table);
  ASSERT_EQ(loaded.dataset.size(), saved.dataset.size());
  EXPECT_EQ(loaded.dataset.sequences, saved.dataset.sequences);
  for (std::size_t i = 0; i < saved.dataset.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.dataset.qor[i].area_um2,
                     saved.dataset.qor[i].area_um2);
    EXPECT_DOUBLE_EQ(loaded.dataset.qor[i].delay_ps,
                     saved.dataset.qor[i].delay_ps);
  }
  EXPECT_DOUBLE_EQ(loaded.dataset.area_mean, saved.dataset.area_mean);
  EXPECT_DOUBLE_EQ(loaded.dataset.area_std, saved.dataset.area_std);
  EXPECT_DOUBLE_EQ(loaded.dataset.delay_mean, saved.dataset.delay_mean);
  EXPECT_DOUBLE_EQ(loaded.dataset.delay_std, saved.dataset.delay_std);
  EXPECT_DOUBLE_EQ(loaded.seconds, saved.seconds);
  expect_rng_state_eq(loaded.rng, saved.rng);
}

TEST_F(CheckpointTest, ModelCheckpointsRoundTrip) {
  core::CheckpointManager mgr(fresh_dir("ckpt_models"), 42);
  clo::Rng rng(9);

  core::SurrogateCheckpoint s;
  s.weights = std::string("arbitrary\0weight\xff" "bytes", 22);
  s.report.train_mse = 0.125;
  s.report.holdout_mse = 0.25;
  s.report.spearman_area = 0.5;
  s.report.spearman_delay = 0.75;
  s.report.seconds = 1.5;
  s.report.epoch_loss = {1.0, 0.5, 0.25};
  s.report.lr_backoffs = 2;
  s.seconds = 2.5;
  s.rng = rng.state();
  ASSERT_TRUE(mgr.save_surrogate(s));
  core::SurrogateCheckpoint sl;
  ASSERT_TRUE(mgr.load_surrogate(&sl));
  EXPECT_EQ(sl.weights, s.weights);
  EXPECT_DOUBLE_EQ(sl.report.train_mse, s.report.train_mse);
  EXPECT_DOUBLE_EQ(sl.report.holdout_mse, s.report.holdout_mse);
  EXPECT_DOUBLE_EQ(sl.report.spearman_area, s.report.spearman_area);
  EXPECT_DOUBLE_EQ(sl.report.spearman_delay, s.report.spearman_delay);
  EXPECT_EQ(sl.report.epoch_loss, s.report.epoch_loss);
  EXPECT_EQ(sl.report.lr_backoffs, s.report.lr_backoffs);
  EXPECT_DOUBLE_EQ(sl.seconds, s.seconds);
  expect_rng_state_eq(sl.rng, s.rng);

  core::DiffusionCheckpoint d;
  d.weights = "diffusion blob";
  d.stats.iterations = 300;
  d.stats.final_loss = 0.0625;
  d.stats.loss_curve = {2.0, 1.0, 0.5};
  d.stats.lr_backoffs = 1;
  d.seconds = 4.5;
  d.rng = rng.state();
  ASSERT_TRUE(mgr.save_diffusion(d));
  core::DiffusionCheckpoint dl;
  ASSERT_TRUE(mgr.load_diffusion(&dl));
  EXPECT_EQ(dl.weights, d.weights);
  EXPECT_EQ(dl.stats.iterations, d.stats.iterations);
  EXPECT_DOUBLE_EQ(dl.stats.final_loss, d.stats.final_loss);
  EXPECT_EQ(dl.stats.loss_curve, d.stats.loss_curve);
  EXPECT_EQ(dl.stats.lr_backoffs, d.stats.lr_backoffs);
}

TEST_F(CheckpointTest, PhasesDoNotCrossLoad) {
  // A surrogate checkpoint must not load as a diffusion one (phase id is
  // part of the envelope), and a missing file is a clean false.
  core::CheckpointManager mgr(fresh_dir("ckpt_phases"), 1);
  core::SurrogateCheckpoint s;
  s.weights = "w";
  ASSERT_TRUE(mgr.save_surrogate(s));
  core::DiffusionCheckpoint d;
  EXPECT_FALSE(mgr.load_diffusion(&d));
  core::DatasetCheckpoint ds;
  EXPECT_FALSE(mgr.load_dataset(&ds));
}

TEST_F(CheckpointTest, ConfigHashMismatchRejects) {
  const std::string dir = fresh_dir("ckpt_hash");
  core::CheckpointManager writer(dir, 0x1111);
  ASSERT_TRUE(writer.save_dataset(sample_dataset_checkpoint()));
  core::CheckpointManager reader(dir, 0x2222);
  core::DatasetCheckpoint c;
  EXPECT_FALSE(reader.load_dataset(&c));
  core::CheckpointManager same(dir, 0x1111);
  EXPECT_TRUE(same.load_dataset(&c));
}

TEST_F(CheckpointTest, EverySingleByteFlipIsRejected) {
  core::CheckpointManager mgr(fresh_dir("ckpt_flip"), 7);
  ASSERT_TRUE(mgr.save_dataset(sample_dataset_checkpoint()));
  const std::string path = mgr.path_for("dataset");
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), 64u);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] ^= 0x20;
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    core::DatasetCheckpoint c;
    EXPECT_FALSE(mgr.load_dataset(&c)) << "flip at byte " << i;
  }
}

TEST_F(CheckpointTest, EveryTruncationIsRejected) {
  core::CheckpointManager mgr(fresh_dir("ckpt_trunc"), 7);
  ASSERT_TRUE(mgr.save_dataset(sample_dataset_checkpoint()));
  const std::string path = mgr.path_for("dataset");
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  for (std::size_t len = 0; len < bytes.size(); len += 3) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    core::DatasetCheckpoint c;
    EXPECT_FALSE(mgr.load_dataset(&c)) << "truncated to " << len;
  }
}

TEST_F(CheckpointTest, InjectedWriteFaultKeepsThePreviousCheckpoint) {
  core::CheckpointManager mgr(fresh_dir("ckpt_wfault"), 7);
  const auto saved = sample_dataset_checkpoint();
  ASSERT_TRUE(mgr.save_dataset(saved));
  fault::arm("checkpoint.write=1");
  auto second = saved;
  second.seconds = 99.0;
  EXPECT_FALSE(mgr.save_dataset(second));  // degraded, not thrown
  fault::disarm();
  core::DatasetCheckpoint c;
  ASSERT_TRUE(mgr.load_dataset(&c));
  EXPECT_DOUBLE_EQ(c.seconds, saved.seconds);  // old file untouched
}

TEST_F(CheckpointTest, InjectedReadFaultDegradesToNoCheckpoint) {
  core::CheckpointManager mgr(fresh_dir("ckpt_rfault"), 7);
  ASSERT_TRUE(mgr.save_dataset(sample_dataset_checkpoint()));
  fault::arm("checkpoint.read=1");
  core::DatasetCheckpoint c;
  EXPECT_FALSE(mgr.load_dataset(&c));
  fault::disarm();
  EXPECT_TRUE(mgr.load_dataset(&c));
}

// ---- tolerant restarts --------------------------------------------------

struct OptimizerFixture {
  aig::Aig g = circuits::make_benchmark("c17");
  models::TransformEmbedding embedding;
  std::unique_ptr<models::SurrogateModel> surrogate;
  models::DiffusionModel diffusion;

  static models::SurrogateConfig scfg() {
    models::SurrogateConfig c;
    c.seq_len = 8;
    return c;
  }
  static models::DiffusionConfig dcfg() {
    models::DiffusionConfig c;
    c.seq_len = 8;
    c.num_steps = 16;
    return c;
  }

  explicit OptimizerFixture(clo::Rng& rng)
      : embedding(8, rng),
        surrogate(models::make_surrogate("cnn", g, scfg(), rng)),
        diffusion(dcfg(), rng) {}

  core::ContinuousOptimizer make() {
    return core::ContinuousOptimizer(*surrogate, diffusion, embedding);
  }
};

TEST_F(CheckpointTest, TolerantRestartsMatchPlainWhenNothingFails) {
  clo::Rng setup(5);
  OptimizerFixture fx(setup);
  auto opt = fx.make();
  clo::Rng a(23), b(23);
  const auto plain = opt.run_restarts(a, 5, nullptr);
  std::vector<core::ContinuousOptimizer::RestartFailure> failures;
  const auto tolerant = opt.run_restarts(b, 5, nullptr, &failures);
  EXPECT_TRUE(failures.empty());
  ASSERT_EQ(tolerant.size(), plain.size());
  for (std::size_t r = 0; r < plain.size(); ++r) {
    EXPECT_EQ(tolerant[r].sequence, plain[r].sequence) << "restart " << r;
    EXPECT_EQ(tolerant[r].latent, plain[r].latent);
  }
  // The caller's Rng ends just past the 5 noise blocks (T * L * d
  // Gaussians each): the retry Rngs are forked from a copy of it.
  clo::Rng blocks(23);
  for (int i = 0; i < 5 * 16 * 8 * 8; ++i) blocks.next_gaussian();
  for (const clo::Rng* rng : {&a, &b}) {
    const auto got = rng->state(), want = blocks.state();
    for (int w = 0; w < 4; ++w) EXPECT_EQ(got.s[w], want.s[w]);
    EXPECT_EQ(got.has_cached_gaussian, want.has_cached_gaussian);
    EXPECT_EQ(got.cached_gaussian, want.cached_gaussian);
  }
}

TEST_F(CheckpointTest, OneShotFaultsRecoverBitIdentical) {
  // An nth-hit fault is consumed by the failing attempt, so the serial
  // re-run on the original noise recovers every restart exactly.
  for (const char* spec : {"optimizer.restart=2", "optimizer.latent_nan=1"}) {
    clo::Rng setup(5);
    OptimizerFixture fx(setup);
    auto opt = fx.make();
    clo::Rng a(23);
    fault::disarm();
    const auto plain = opt.run_restarts(a, 5, nullptr);
    fault::arm(spec);
    clo::Rng b(23);
    std::vector<core::ContinuousOptimizer::RestartFailure> failures;
    const auto tolerant = opt.run_restarts(b, 5, nullptr, &failures);
    fault::disarm();
    EXPECT_TRUE(failures.empty()) << spec;
    ASSERT_EQ(tolerant.size(), plain.size());
    for (std::size_t r = 0; r < plain.size(); ++r) {
      EXPECT_EQ(tolerant[r].sequence, plain[r].sequence)
          << spec << " restart " << r;
    }
  }
}

TEST_F(CheckpointTest, QuarantineLeavesSurvivorsUnchanged) {
  clo::Rng setup(5);
  OptimizerFixture fx(setup);
  auto opt = fx.make();
  clo::Rng a(23);
  const auto plain = opt.run_restarts(a, 6, nullptr);

  // The firing pattern of a probability spec is a pure hash of
  // (seed, site, hit index), so this seed is chosen to poison exactly
  // restart 0's latent on the batch attempt (hit 1), its original-noise
  // re-run (hit 7), and its fresh-noise retry (hit 8) — and nothing else.
  // Restart 0 is quarantined; restarts 1..5 recover on their original
  // noise and must be bit-identical to the fault-free run.
  fault::arm("optimizer.latent_nan=p0.3,seed=2781");
  clo::Rng b(23);
  std::vector<core::ContinuousOptimizer::RestartFailure> failures;
  const auto tolerant = opt.run_restarts(b, 6, nullptr, &failures);
  fault::disarm();

  ASSERT_EQ(tolerant.size(), plain.size());
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].index, 0u);
  EXPECT_NE(failures[0].message.find("non-finite latent"), std::string::npos)
      << failures[0].message;
  EXPECT_TRUE(tolerant[0].sequence.empty());  // slot left default
  for (std::size_t r = 1; r < plain.size(); ++r) {
    EXPECT_EQ(tolerant[r].sequence, plain[r].sequence) << "survivor " << r;
    EXPECT_EQ(tolerant[r].latent, plain[r].latent) << "survivor " << r;
  }
}

TEST_F(CheckpointTest, AlwaysFiringFaultQuarantinesEverything) {
  clo::Rng setup(5);
  OptimizerFixture fx(setup);
  auto opt = fx.make();
  fault::arm("optimizer.latent_nan=p1.0");
  clo::Rng rng(23);
  std::vector<core::ContinuousOptimizer::RestartFailure> failures;
  const auto results = opt.run_restarts(rng, 3, nullptr, &failures);
  fault::disarm();
  ASSERT_EQ(failures.size(), results.size());
  for (const auto& f : failures) {
    EXPECT_NE(f.message.find("non-finite latent"), std::string::npos)
        << f.message;
  }
}

// ---- pipeline kill-and-resume -------------------------------------------

core::PipelineConfig resume_config() {
  core::PipelineConfig cfg;
  cfg.dataset_size = 40;
  cfg.diffusion_steps = 30;
  cfg.diffusion_iters = 300;
  cfg.restarts = 2;
  cfg.surrogate = "cnn";
  cfg.surrogate_train.epochs = 30;
  cfg.seed = 5;
  return cfg;
}

core::PipelineResult run_pipeline(const core::PipelineConfig& cfg) {
  core::QorEvaluator ev(circuits::make_benchmark("c17"));
  core::CloPipeline pipeline(cfg);
  return pipeline.run(ev);
}

void expect_same_outcome(const core::PipelineResult& a,
                         const core::PipelineResult& b) {
  EXPECT_EQ(opt::sequence_to_string(a.best_sequence),
            opt::sequence_to_string(b.best_sequence));
  EXPECT_DOUBLE_EQ(a.best.area_um2, b.best.area_um2);
  EXPECT_DOUBLE_EQ(a.best.delay_ps, b.best.delay_ps);
}

TEST_F(CheckpointTest, ResumeIsBitIdenticalToUninterrupted) {
  const auto baseline = run_pipeline(resume_config());

  auto cfg = resume_config();
  cfg.checkpoint_dir = fresh_dir("resume_full");
  const auto checkpointed = run_pipeline(cfg);
  // Checkpointing must not perturb the run...
  expect_same_outcome(checkpointed, baseline);
  EXPECT_EQ(checkpointed.resumed_phases, 0);
  for (const char* phase : {"dataset", "surrogate", "diffusion"}) {
    EXPECT_TRUE(fs::exists(cfg.checkpoint_dir + "/" + std::string(phase) +
                           ".ckpt"))
        << phase;
  }

  // ...and resuming from all three phases reproduces it exactly.
  cfg.resume = true;
  const auto resumed = run_pipeline(cfg);
  EXPECT_EQ(resumed.resumed_phases, 3);
  expect_same_outcome(resumed, baseline);
}

TEST_F(CheckpointTest, KilledMidDiffusionResumesBitIdentical) {
  const auto baseline = run_pipeline(resume_config());

  auto cfg = resume_config();
  cfg.checkpoint_dir = fresh_dir("resume_killed");
  // Simulate a mid-run death during diffusion training: the dataset and
  // surrogate checkpoints are already on disk when the process dies.
  fault::arm("diffusion.train_step=5");
  EXPECT_THROW(run_pipeline(cfg), fault::InjectedFault);
  fault::disarm();
  EXPECT_TRUE(fs::exists(cfg.checkpoint_dir + "/dataset.ckpt"));
  EXPECT_TRUE(fs::exists(cfg.checkpoint_dir + "/surrogate.ckpt"));
  EXPECT_FALSE(fs::exists(cfg.checkpoint_dir + "/diffusion.ckpt"));

  cfg.resume = true;
  const auto resumed = run_pipeline(cfg);
  EXPECT_EQ(resumed.resumed_phases, 2);
  expect_same_outcome(resumed, baseline);
}

TEST_F(CheckpointTest, CorruptCheckpointFallsBackToRecompute) {
  const auto baseline = run_pipeline(resume_config());

  auto cfg = resume_config();
  cfg.checkpoint_dir = fresh_dir("resume_corrupt");
  run_pipeline(cfg);
  // Flip one byte of the surrogate checkpoint: resume must keep the
  // dataset phase, reject the surrogate one, and (because later phases
  // depend on earlier ones) retrain the diffusion model too.
  const std::string path = cfg.checkpoint_dir + "/surrogate.ckpt";
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  bytes[bytes.size() / 2] ^= 0x40;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  cfg.resume = true;
  const auto resumed = run_pipeline(cfg);
  EXPECT_EQ(resumed.resumed_phases, 1);
  expect_same_outcome(resumed, baseline);
}

TEST_F(CheckpointTest, DurableWriteLeavesNoTmpAndSurvivesOverwrite) {
  // The atomic write path now fsyncs the tmp file before renaming it and
  // the directory after: the final name must never point at unpersisted
  // bytes. Observable contract here: round-trips are exact, repeated saves
  // overwrite in place, and no .tmp staging file is ever left behind.
  const std::string dir = fresh_dir("ckpt_durable");
  core::CheckpointManager mgr(dir, 7);
  const auto first = sample_dataset_checkpoint();
  ASSERT_TRUE(mgr.save_dataset(first));
  auto second = sample_dataset_checkpoint();
  second.seconds = 99.0;  // distinguishable payload
  ASSERT_TRUE(mgr.save_dataset(second));  // overwrite, same path

  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().extension(), ".ckpt") << e.path();
    ++files;
  }
  EXPECT_EQ(files, 1u);  // exactly the committed file, no staging debris

  core::DatasetCheckpoint loaded;
  ASSERT_TRUE(mgr.load_dataset(&loaded));
  EXPECT_DOUBLE_EQ(loaded.seconds, 99.0);
}

TEST_F(CheckpointTest, ConfigChangeInvalidatesCheckpoints) {
  auto cfg = resume_config();
  cfg.checkpoint_dir = fresh_dir("resume_config_change");
  run_pipeline(cfg);

  auto other = cfg;
  other.seed = 6;
  other.resume = true;
  const auto fresh6 = run_pipeline([] {
    auto c = resume_config();
    c.seed = 6;
    return c;
  }());
  const auto resumed = run_pipeline(other);
  EXPECT_EQ(resumed.resumed_phases, 0);  // stale checkpoints ignored
  expect_same_outcome(resumed, fresh6);
}

}  // namespace
