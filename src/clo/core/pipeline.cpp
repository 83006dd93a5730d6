#include "clo/core/pipeline.hpp"

#include <set>
#include <sstream>

#include "clo/core/checkpoint.hpp"
#include "clo/opt/transform.hpp"
#include "clo/nn/kernel.hpp"
#include "clo/nn/serialize.hpp"
#include "clo/util/fault.hpp"
#include "clo/util/log.hpp"
#include "clo/util/proc.hpp"
#include "clo/util/thread_pool.hpp"
#include "clo/util/timer.hpp"

namespace clo::core {

namespace {

obs::Json series_json(const std::vector<double>& values) {
  obs::Json arr = obs::Json::array();
  for (double v : values) arr.push_back(obs::Json(v));
  return arr;
}

}  // namespace

std::uint64_t pipeline_config_hash(const PipelineConfig& config,
                                   const aig::Aig& circuit) {
  ConfigHasher h;
  h.add(circuit.name())
      .add(static_cast<std::uint64_t>(circuit.num_pis()))
      .add(static_cast<std::uint64_t>(circuit.num_pos()))
      .add(static_cast<std::uint64_t>(circuit.num_ands()))
      .add(config.seed)
      .add(static_cast<std::uint64_t>(config.seq_len))
      .add(static_cast<std::uint64_t>(config.embed_dim))
      .add(static_cast<std::uint64_t>(config.dataset_size))
      .add(static_cast<std::uint64_t>(config.diffusion_steps))
      .add(static_cast<std::uint64_t>(config.diffusion_iters))
      .add(static_cast<std::uint64_t>(config.diffusion_batch))
      .add(static_cast<double>(config.diffusion_lr))
      .add(config.surrogate)
      .add(static_cast<std::uint64_t>(config.surrogate_train.epochs))
      .add(static_cast<std::uint64_t>(config.surrogate_train.batch_size))
      .add(static_cast<double>(config.surrogate_train.lr))
      .add(config.surrogate_train.holdout_fraction);
  return h.hash();
}

util::ThreadPool* CloPipeline::acquire_pool(
    std::unique_ptr<util::ThreadPool>* owned) const {
  if (external_pool_ != nullptr) {
    return external_pool_->size() >= 2 ? external_pool_ : nullptr;
  }
  const std::size_t workers = util::resolve_threads(config_.threads);
  if (workers < 2) return nullptr;
  *owned = std::make_unique<util::ThreadPool>(workers);
  return owned->get();
}

PipelineResult CloPipeline::run(QorEvaluator& evaluator,
                                const util::CancelToken* cancel) {
  pretrain(evaluator, cancel);
  return optimize(evaluator, cancel);
}

void CloPipeline::pretrain(QorEvaluator& evaluator,
                           const util::CancelToken* cancel) {
  if (pretrained_) return;
  if (cancel != nullptr) cancel->check();
  PipelineResult result;
  clo::Rng rng(config_.seed);
  // A pool only exists when parallelism was actually requested; every
  // consumer below treats a null pool as "run serially".
  std::unique_ptr<util::ThreadPool> owned_pool;
  util::ThreadPool* pool = acquire_pool(&owned_pool);

  std::unique_ptr<CheckpointManager> ckpt;
  if (!config_.checkpoint_dir.empty()) {
    ckpt = std::make_unique<CheckpointManager>(
        config_.checkpoint_dir,
        pipeline_config_hash(config_, evaluator.circuit()));
  }
  DatasetCheckpoint dck;
  SurrogateCheckpoint sck;
  DiffusionCheckpoint fck;
  bool have_dataset = false, have_surrogate = false, have_diffusion = false;
  if (ckpt != nullptr && config_.resume) {
    // Phases chain: a later checkpoint is only usable when every earlier
    // one loaded (its Rng state continues the earlier phase's stream).
    have_dataset = ckpt->load_dataset(&dck);
    if (have_dataset) {
      have_surrogate = ckpt->load_surrogate(&sck);
      if (have_surrogate) have_diffusion = ckpt->load_diffusion(&fck);
    }
  }

  // ---- One-time pretraining (upper half of Fig. 1) -----------------------
  if (have_dataset) {
    embedding_ = std::make_unique<models::TransformEmbedding>(
        std::move(dck.embedding_table));
    dataset_ = std::move(dck.dataset);
    result.original = dck.original;
    result.dataset_seconds = dck.seconds;
    rng.set_state(dck.rng);
    ++result.resumed_phases;
    CLO_LOG_INFO << evaluator.circuit().name()
                 << ": resumed dataset phase from checkpoint ("
                 << dataset_.size() << " labeled sequences)";
  } else {
    result.original = evaluator.original();
    embedding_ = std::make_unique<models::TransformEmbedding>(
        config_.embed_dim, rng);
    {
      CLO_TRACE_SPAN("pipeline.dataset");
      clo::set_log_phase("dataset");
      Stopwatch w;
      ScopedTimer st(w);
      const double cpu0 = util::proc::cpu_seconds();
      dataset_ = generate_dataset(evaluator, config_.dataset_size,
                                  config_.seq_len, rng, pool, cancel);
      result.dataset_seconds = w.seconds();
      result.dataset_cpu_seconds = util::proc::cpu_seconds() - cpu0;
      CLO_OBS_GAUGE("pipeline.dataset_seconds", result.dataset_seconds);
    }
    if (ckpt != nullptr) {
      DatasetCheckpoint c;
      c.original = result.original;
      c.embedding_table = embedding_->table();
      c.dataset = dataset_;
      c.seconds = result.dataset_seconds;
      c.rng = rng.state();
      if (!ckpt->save_dataset(c)) {
        CLO_LOG_WARN << "checkpoint: dataset save failed (continuing)";
      }
    }
  }

  models::SurrogateConfig scfg;
  scfg.seq_len = config_.seq_len;
  scfg.embed_dim = config_.embed_dim;
  if (have_surrogate) {
    // Architecture from a throwaway rng (every weight is overwritten by
    // the checkpoint), then the post-phase Rng stream.
    clo::Rng init_rng(config_.seed ^ 0x5caffe17ULL);
    surrogate_ = models::make_surrogate(config_.surrogate,
                                        evaluator.circuit(), scfg, init_rng);
    bool loaded = false;
    try {
      auto params = surrogate_->parameters();
      std::istringstream is(sck.weights);
      loaded = nn::load_parameters(params, is);
    } catch (const std::exception&) {
      loaded = false;
    }
    if (loaded) {
      result.surrogate_report = sck.report;
      result.surrogate_train_seconds = sck.seconds;
      rng.set_state(sck.rng);
      ++result.resumed_phases;
      CLO_LOG_INFO << evaluator.circuit().name()
                   << ": resumed surrogate phase from checkpoint";
    } else {
      CLO_LOG_WARN << "checkpoint: surrogate weights unreadable; retraining";
      have_surrogate = false;
      have_diffusion = false;
      surrogate_.reset();
    }
  }
  if (!have_surrogate) {
    // Phase boundary: don't start a training phase that is already doomed.
    if (cancel != nullptr) cancel->check();
    surrogate_ = models::make_surrogate(config_.surrogate,
                                        evaluator.circuit(), scfg, rng);
    {
      CLO_TRACE_SPAN("pipeline.surrogate_train");
      clo::set_log_phase("surrogate_train");
      Stopwatch w;
      ScopedTimer st(w);
      const double cpu0 = util::proc::cpu_seconds();
      result.surrogate_report =
          train_surrogate(*surrogate_, *embedding_, dataset_,
                          config_.surrogate_train, rng, cancel);
      result.surrogate_train_seconds = w.seconds();
      result.surrogate_train_cpu_seconds = util::proc::cpu_seconds() - cpu0;
      CLO_OBS_GAUGE("pipeline.surrogate_train_seconds",
                    result.surrogate_train_seconds);
    }
    if (ckpt != nullptr) {
      bool saved = false;
      try {
        SurrogateCheckpoint c;
        std::ostringstream os;
        if (nn::save_parameters(surrogate_->parameters(), os)) {
          c.weights = os.str();
          c.report = result.surrogate_report;
          c.seconds = result.surrogate_train_seconds;
          c.rng = rng.state();
          saved = ckpt->save_surrogate(c);
        }
      } catch (const std::exception&) {
        saved = false;
      }
      if (!saved) {
        CLO_LOG_WARN << "checkpoint: surrogate save failed (continuing)";
      }
    }
  }
  CLO_LOG_INFO << evaluator.circuit().name() << ": surrogate '"
               << config_.surrogate << "' holdout mse "
               << result.surrogate_report.holdout_mse << ", spearman(area) "
               << result.surrogate_report.spearman_area;

  models::DiffusionConfig dcfg;
  dcfg.seq_len = config_.seq_len;
  dcfg.embed_dim = config_.embed_dim;
  dcfg.num_steps = config_.diffusion_steps;
  if (have_diffusion) {
    clo::Rng init_rng(config_.seed ^ 0xd1ff0517ULL);
    diffusion_ = std::make_unique<models::DiffusionModel>(dcfg, init_rng);
    bool loaded = false;
    try {
      auto params = diffusion_->unet().parameters();
      std::istringstream is(fck.weights);
      loaded = nn::load_parameters(params, is);
    } catch (const std::exception&) {
      loaded = false;
    }
    if (loaded) {
      result.diffusion_report = fck.stats;
      result.diffusion_train_seconds = fck.seconds;
      rng.set_state(fck.rng);
      ++result.resumed_phases;
      CLO_LOG_INFO << evaluator.circuit().name()
                   << ": resumed diffusion phase from checkpoint";
    } else {
      CLO_LOG_WARN << "checkpoint: diffusion weights unreadable; retraining";
      have_diffusion = false;
      diffusion_.reset();
    }
  }
  if (!have_diffusion) {
    if (cancel != nullptr) cancel->check();
    diffusion_ = std::make_unique<models::DiffusionModel>(dcfg, rng);
    {
      CLO_TRACE_SPAN("pipeline.diffusion_train");
      clo::set_log_phase("diffusion_train");
      Stopwatch w;
      ScopedTimer st(w);
      const double cpu0 = util::proc::cpu_seconds();
      std::vector<std::vector<float>> data;
      data.reserve(dataset_.size());
      for (const auto& seq : dataset_.sequences) {
        data.push_back(embedding_->embed(seq));
      }
      result.diffusion_report = diffusion_->train(
          data, config_.diffusion_iters, config_.diffusion_batch,
          config_.diffusion_lr, rng, cancel);
      result.diffusion_train_seconds = w.seconds();
      result.diffusion_train_cpu_seconds = util::proc::cpu_seconds() - cpu0;
      CLO_OBS_GAUGE("pipeline.diffusion_train_seconds",
                    result.diffusion_train_seconds);
      CLO_LOG_INFO << evaluator.circuit().name() << ": diffusion loss "
                   << result.diffusion_report.final_loss << " after "
                   << result.diffusion_report.iterations << " iters";
    }
    if (ckpt != nullptr) {
      bool saved = false;
      try {
        DiffusionCheckpoint c;
        std::ostringstream os;
        if (nn::save_parameters(diffusion_->unet().parameters(), os)) {
          c.weights = os.str();
          c.stats = result.diffusion_report;
          c.seconds = result.diffusion_train_seconds;
          c.rng = rng.state();
          saved = ckpt->save_diffusion(c);
        }
      } catch (const std::exception&) {
        saved = false;
      }
      if (!saved) {
        CLO_LOG_WARN << "checkpoint: diffusion save failed (continuing)";
      }
    }
  }
  clo::set_log_phase("");
  boundary_rng_ = rng.state();
  pretrain_result_ = std::move(result);
  pretrained_ = true;
}

PipelineResult CloPipeline::optimize(QorEvaluator& evaluator, int restarts,
                                     bool verify,
                                     const util::CancelToken* cancel) {
  pretrain(evaluator, cancel);
  if (cancel != nullptr) cancel->check();
  // Start from a copy of the pretraining result and the boundary Rng
  // state: every optimize() call replays the identical stream, so a warm
  // query's best_sequence is byte-identical to a cold run().
  PipelineResult result = pretrain_result_;
  clo::Rng rng(config_.seed);
  rng.set_state(boundary_rng_);
  std::unique_ptr<util::ThreadPool> owned_pool;
  util::ThreadPool* pool = acquire_pool(&owned_pool);

  // ---- Continuous optimization (lower half of Fig. 1) --------------------
  ContinuousOptimizer optimizer(*surrogate_, *diffusion_, *embedding_,
                                config_.optimize);
  {
    CLO_TRACE_SPAN("pipeline.optimize");
    clo::set_log_phase("optimize");
    Stopwatch w;
    ScopedTimer st(w);
    const double cpu0 = util::proc::cpu_seconds();
    result.restarts = optimizer.run_restarts(
        rng, restarts, pool, &result.optimize_quarantined, cancel);
    result.optimize_seconds = w.seconds();
    result.optimize_cpu_seconds = util::proc::cpu_seconds() - cpu0;
    CLO_OBS_GAUGE("pipeline.optimize_seconds", result.optimize_seconds);
    for (const auto& f : result.optimize_quarantined) {
      CLO_LOG_WARN << "optimize: quarantined restart " << f.index << ": "
                   << f.message;
    }
  }

  // ---- Validation with real synthesis (outside the optimization loop) ----
  {
    CLO_TRACE_SPAN("pipeline.validate");
    clo::set_log_phase("validate");
    Stopwatch w;
    ScopedTimer st(w);
    const double cpu0 = util::proc::cpu_seconds();
    // Label every restart in parallel, then pick the winner serially so
    // the first-lowest tie-break is scheduling-independent. Every restart
    // is attempted even when one fails; failures get one serial retry
    // (recovers one-shot faults) before the restart is quarantined.
    result.restart_qor.resize(result.restarts.size());
    std::vector<char> valid(result.restarts.size(), 1);
    for (const auto& f : result.optimize_quarantined) valid[f.index] = 0;
    obs::Progress progress("validate", result.restarts.size());
    const auto errors = util::parallel_for_collect(
        pool, result.restarts.size(), [&](std::size_t i) {
          if (!valid[i]) return;
          result.restart_qor[i] =
              evaluator.evaluate(result.restarts[i].sequence, cancel);
          progress.tick();
        });
    // Cancellation bypasses the serial retry: a cancelled validation pass
    // must surface as an error, not as a wave of quarantined restarts.
    if (cancel != nullptr) cancel->check();
    for (const auto& e : errors) {
      try {
        result.restart_qor[e.index] =
            evaluator.evaluate(result.restarts[e.index].sequence, cancel);
      } catch (const util::CancelledError&) {
        throw;
      } catch (const std::exception& ex) {
        valid[e.index] = 0;
        result.validate_quarantined.push_back({e.index, ex.what()});
        CLO_OBS_COUNT("pipeline.quarantined_validations", 1);
        CLO_LOG_WARN << "validate: quarantined restart " << e.index << ": "
                     << ex.what();
      }
    }
    double best_score = 1e300;
    bool any_valid = false;
    for (std::size_t i = 0; i < result.restarts.size(); ++i) {
      if (!valid[i]) continue;
      const auto& restart = result.restarts[i];
      const Qor q = result.restart_qor[i];
      const double score =
          config_.optimize.weight_area *
              (q.area_um2 - dataset_.area_mean) / dataset_.area_std +
          config_.optimize.weight_delay *
              (q.delay_ps - dataset_.delay_mean) / dataset_.delay_std;
      if (score < best_score) {
        best_score = score;
        result.best = q;
        result.best_sequence = restart.sequence;
        result.best_discrepancy = restart.discrepancy;
        any_valid = true;
      }
    }
    if (!any_valid) {
      // Every restart failed: report the unmodified circuit rather than a
      // zero-QoR artifact.
      result.best = result.original;
      result.best_sequence.clear();
      result.best_discrepancy = 0.0;
    }
    result.validate_seconds = w.seconds();
    result.validate_cpu_seconds = util::proc::cpu_seconds() - cpu0;
    CLO_OBS_GAUGE("pipeline.validate_seconds", result.validate_seconds);
  }

  // ---- SAT equivalence verification (--verify) ---------------------------
  // Replay every distinct surviving sequence on a copy of the original
  // circuit and prove it equivalent with the miter-based checker. Like
  // validation, this runs outside the optimization loop and is excluded
  // from the Fig. 5 time.
  if (verify) {
    CLO_TRACE_SPAN("pipeline.verify");
    clo::set_log_phase("verify");
    Stopwatch w;
    ScopedTimer st(w);
    const double cpu0 = util::proc::cpu_seconds();
    std::vector<char> valid(result.restarts.size(), 1);
    for (const auto& f : result.optimize_quarantined) valid[f.index] = 0;
    for (const auto& f : result.validate_quarantined) valid[f.index] = 0;
    std::vector<opt::Sequence> sequences;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < result.restarts.size(); ++i) {
      if (!valid[i]) continue;
      const auto& seq = result.restarts[i].sequence;
      if (seen.insert(opt::sequence_to_string(seq)).second) {
        sequences.push_back(seq);
      }
    }
    // When every restart was quarantined, `best` falls back to the
    // original circuit with an empty sequence — still worth one (trivial)
    // check so the report always carries a verdict.
    if (sequences.empty()) sequences.push_back(result.best_sequence);
    result.verify_verdict = "equivalent";
    for (const auto& seq : sequences) {
      if (cancel != nullptr) cancel->check();
      Stopwatch check_watch;
      ScopedTimer check_timer(check_watch);
      aig::Aig optimized = evaluator.circuit();
      opt::run_sequence(optimized, seq);
      const auto outcome =
          sat::check_equivalence(evaluator.circuit(), optimized);
      result.verification.push_back({seq, outcome, check_watch.seconds()});
      if (outcome.verdict == sat::CecVerdict::kNotEquivalent) {
        result.verify_verdict = "not_equivalent";
        CLO_LOG_ERROR << "verify: sequence '" << opt::sequence_to_string(seq)
                      << "' is NOT equivalent to the original (PO "
                      << outcome.failing_po << ")";
      } else if (outcome.verdict == sat::CecVerdict::kUnknown &&
                 result.verify_verdict == "equivalent") {
        result.verify_verdict = "unknown";
      }
    }
    result.verify_seconds = w.seconds();
    result.verify_cpu_seconds = util::proc::cpu_seconds() - cpu0;
    CLO_OBS_GAUGE("pipeline.verify_seconds", result.verify_seconds);
    CLO_LOG_INFO << evaluator.circuit().name() << ": verify "
                 << result.verify_verdict << " (" << sequences.size()
                 << " sequence(s), " << result.verify_seconds << " s)";
  }
  clo::set_log_phase("");
  return result;
}

obs::Json pipeline_report(const PipelineResult& result,
                          const EvaluatorStats& evaluator_stats) {
  obs::Json report = obs::Json::object();
  report["schema"] = obs::Json(std::string("clo.report.v1"));
  report["run"] = obs::Json(clo::run_id());
  report["status"] = obs::Json(std::string("ok"));
  // Which nn kernel dispatch target produced these numbers ("avx2" or
  // "scalar"). All targets are bitwise identical by contract; recording
  // it lets CI diff a `--kernel-target scalar` run against a default run.
  report["kernel_target"] = obs::Json(std::string(nn::kernel::active_target()));

  obs::Json resume = obs::Json::object();
  resume["resumed_phases"] = obs::Json(result.resumed_phases);
  report["resume"] = resume;

  // Fault-tolerance accounting: which restarts were quarantined and why,
  // plus the active fault-injection arming (if any) so a chaos run's
  // report documents exactly what was injected.
  obs::Json quarantine = obs::Json::object();
  auto failures_json =
      [](const std::vector<ContinuousOptimizer::RestartFailure>& v) {
        obs::Json arr = obs::Json::array();
        for (const auto& f : v) {
          obs::Json e = obs::Json::object();
          e["restart"] = obs::Json(static_cast<std::uint64_t>(f.index));
          e["message"] = obs::Json(f.message);
          arr.push_back(std::move(e));
        }
        return arr;
      };
  quarantine["optimize"] = failures_json(result.optimize_quarantined);
  quarantine["validate"] = failures_json(result.validate_quarantined);
  quarantine["total"] = obs::Json(static_cast<std::uint64_t>(
      result.optimize_quarantined.size() +
      result.validate_quarantined.size()));
  report["quarantine"] = quarantine;
  {
    const std::string fault = util::fault::describe();
    if (!fault.empty()) report["fault"] = obs::Json(fault);
  }

  obs::Json qor = obs::Json::object();
  qor["original_area_um2"] = obs::Json(result.original.area_um2);
  qor["original_delay_ps"] = obs::Json(result.original.delay_ps);
  qor["best_area_um2"] = obs::Json(result.best.area_um2);
  qor["best_delay_ps"] = obs::Json(result.best.delay_ps);
  qor["best_sequence"] = obs::Json(opt::sequence_to_string(
      result.best_sequence));
  qor["best_discrepancy"] = obs::Json(result.best_discrepancy);
  report["qor"] = qor;

  obs::Json phases = obs::Json::object();
  phases["dataset"] = obs::Json(result.dataset_seconds);
  phases["surrogate_train"] = obs::Json(result.surrogate_train_seconds);
  phases["diffusion_train"] = obs::Json(result.diffusion_train_seconds);
  phases["optimize"] = obs::Json(result.optimize_seconds);
  phases["validate"] = obs::Json(result.validate_seconds);
  if (!result.verify_verdict.empty()) {
    phases["verify"] = obs::Json(result.verify_seconds);
  }
  report["phase_seconds"] = phases;

  // Process-wide CPU seconds per phase (getrusage: every thread of the
  // process, so concurrent work outside the pipeline counts too). Divided
  // by phase_seconds it gives the phase's effective thread count.
  obs::Json phase_cpu = obs::Json::object();
  phase_cpu["dataset"] = obs::Json(result.dataset_cpu_seconds);
  phase_cpu["surrogate_train"] = obs::Json(result.surrogate_train_cpu_seconds);
  phase_cpu["diffusion_train"] = obs::Json(result.diffusion_train_cpu_seconds);
  phase_cpu["optimize"] = obs::Json(result.optimize_cpu_seconds);
  phase_cpu["validate"] = obs::Json(result.validate_cpu_seconds);
  if (!result.verify_verdict.empty()) {
    phase_cpu["verify"] = obs::Json(result.verify_cpu_seconds);
  }
  report["phase_cpu_seconds"] = phase_cpu;

  // SAT verification results (present only when --verify ran): the
  // aggregate verdict plus one entry per checked sequence with its method
  // ("interface"/"sim"/"sat") and per-check latency.
  if (!result.verify_verdict.empty()) {
    report["verify"] = obs::Json(result.verify_verdict);
    obs::Json verification = obs::Json::object();
    verification["seconds"] = obs::Json(result.verify_seconds);
    obs::Json checks = obs::Json::array();
    for (const auto& check : result.verification) {
      obs::Json entry = obs::Json::object();
      entry["sequence"] =
          obs::Json(opt::sequence_to_string(check.sequence));
      entry["verdict"] = obs::Json(
          std::string(sat::cec_verdict_name(check.outcome.verdict)));
      entry["method"] = obs::Json(check.outcome.method);
      entry["patterns_simulated"] = obs::Json(
          static_cast<std::uint64_t>(check.outcome.patterns_simulated));
      entry["conflicts"] = obs::Json(check.outcome.solver_stats.conflicts);
      entry["seconds"] = obs::Json(check.seconds);
      checks.push_back(std::move(entry));
    }
    verification["checks"] = checks;
    report["verification"] = verification;
  }

  obs::Json ev = obs::Json::object();
  ev["queries"] = obs::Json(static_cast<std::uint64_t>(
      evaluator_stats.queries));
  ev["unique_runs"] = obs::Json(static_cast<std::uint64_t>(
      evaluator_stats.unique_runs));
  ev["cache_hits"] = obs::Json(static_cast<std::uint64_t>(
      evaluator_stats.cache_hits));
  ev["hit_rate"] = obs::Json(evaluator_stats.hit_rate);
  ev["synth_seconds"] = obs::Json(evaluator_stats.synth_seconds);
  report["evaluator"] = ev;

  obs::Json surrogate = obs::Json::object();
  surrogate["train_mse"] = obs::Json(result.surrogate_report.train_mse);
  surrogate["holdout_mse"] = obs::Json(result.surrogate_report.holdout_mse);
  surrogate["spearman_area"] =
      obs::Json(result.surrogate_report.spearman_area);
  surrogate["spearman_delay"] =
      obs::Json(result.surrogate_report.spearman_delay);
  surrogate["seconds"] = obs::Json(result.surrogate_report.seconds);
  surrogate["loss_series"] = series_json(result.surrogate_report.epoch_loss);
  report["surrogate"] = surrogate;

  obs::Json diffusion = obs::Json::object();
  diffusion["iterations"] = obs::Json(result.diffusion_report.iterations);
  diffusion["final_loss"] = obs::Json(result.diffusion_report.final_loss);
  diffusion["loss_series"] = series_json(result.diffusion_report.loss_curve);
  report["diffusion"] = diffusion;

  std::vector<std::string> restart_status(result.restarts.size(), "ok");
  for (const auto& f : result.optimize_quarantined) {
    if (f.index < restart_status.size()) restart_status[f.index] = "quarantined";
  }
  for (const auto& f : result.validate_quarantined) {
    if (f.index < restart_status.size()) {
      restart_status[f.index] = "validate_failed";
    }
  }
  obs::Json restarts = obs::Json::array();
  for (std::size_t i = 0; i < result.restarts.size(); ++i) {
    const auto& r = result.restarts[i];
    obs::Json entry = obs::Json::object();
    entry["status"] = obs::Json(restart_status[i]);
    entry["discrepancy"] = obs::Json(r.discrepancy);
    entry["predicted_objective"] = obs::Json(r.predicted_objective);
    entry["seconds"] = obs::Json(r.seconds);
    if (i < result.restart_qor.size() && restart_status[i] == "ok") {
      entry["area_um2"] = obs::Json(result.restart_qor[i].area_um2);
      entry["delay_ps"] = obs::Json(result.restart_qor[i].delay_ps);
    }
    restarts.push_back(std::move(entry));
  }
  report["restarts"] = restarts;

  report["metrics"] = obs::Registry::instance().snapshot().to_json();
  return report;
}

}  // namespace clo::core
