// Reproduces Fig. 6: area and delay of continuous optimization with and
// without the diffusion model, for each surrogate architecture (MTL,
// LOSTIN, CNN), with the FlowTune baseline as the reference line. Also
// prints the Fig. 4-style optimization trace (discrepancy + predicted QoR
// per denoising step).
//
// The dataset and diffusion model are shared across surrogate variants
// (they do not depend on the surrogate), exactly as a real study would.
//
//   ./bench_fig6_ablation [--circuit router] [--dataset 120]
//   Output: console table + fig6_ablation.csv
//
// Telemetry (shared harness flags): --metrics-out F streams clo.metrics.v1
// JSONL while the bench runs (--metrics-interval-ms N), --metrics-port P
// serves live Prometheus text on 127.0.0.1:P, --profile-out F writes the
// clo.profile.v1 span profile on exit.

#include <cstdio>
#include <memory>

#include "clo/baselines/baseline.hpp"
#include "clo/circuits/generators.hpp"
#include "clo/core/dataset.hpp"
#include "clo/core/optimizer.hpp"
#include "clo/core/trainer.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/util/cli.hpp"
#include "clo/util/csv.hpp"
#include "clo/util/thread_pool.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace clo;
  CliArgs args(argc, argv);
  const std::string circuit_name = args.get("circuit", "router");
  const int dataset_size = args.get_int("dataset", 160);
  const int diffusion_steps = args.get_int("steps", 60);
  const int restarts = args.get_int("restarts", 8);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  const bench::ObsOptions obs_opts = bench::obs_from_args(args);
  const std::size_t workers = util::resolve_threads(args.get_int("threads", 0));
  std::unique_ptr<util::ThreadPool> pool;
  if (workers >= 2) pool = std::make_unique<util::ThreadPool>(workers);

  const aig::Aig circuit = circuits::make_benchmark(circuit_name);
  std::printf("circuit %s: %zu ANDs, depth %d\n", circuit_name.c_str(),
              circuit.num_ands(), circuit.depth());

  clo::Rng rng(seed);
  core::QorEvaluator evaluator(circuit);
  const auto original = evaluator.original();

  // ---- Shared pretraining inputs -----------------------------------------
  models::TransformEmbedding embedding(8, rng);
  std::fprintf(stderr, "[fig6] generating dataset (%d sequences)...\n",
               dataset_size);
  const auto dataset =
      core::generate_dataset(evaluator, dataset_size, 20, rng, pool.get());

  models::DiffusionConfig dcfg;
  dcfg.num_steps = diffusion_steps;
  models::DiffusionModel diffusion(dcfg, rng);
  {
    std::vector<std::vector<float>> data;
    for (const auto& seq : dataset.sequences) data.push_back(embedding.embed(seq));
    std::fprintf(stderr, "[fig6] training diffusion model...\n");
    diffusion.train(data, args.get_int("diffusion-iters", 700), 16, 1e-3f, rng);
  }

  // Pretraining synthesis is bookkept separately from the ablation sweep
  // below (same reset benches use between repetitions).
  evaluator.reset_stats();

  // ---- FlowTune reference line -------------------------------------------
  std::fprintf(stderr, "[fig6] FlowTune reference...\n");
  double flowtune_area, flowtune_delay;
  {
    core::QorEvaluator ev2(circuit);
    clo::Rng frng(seed + 9);
    baselines::BaselineParams params;
    params.eval_budget = args.get_int("budget", 30);
    auto ft = baselines::make_flowtune();
    const auto r = ft->optimize(ev2, params, frng);
    flowtune_area = r.best_qor.area_um2;
    flowtune_delay = r.best_qor.delay_ps;
  }

  // ---- Surrogate sweep × {with, without diffusion} ------------------------
  ConsoleTable table({"surrogate", "diffusion", "area um^2", "delay ps",
                      "discrepancy", "spearman(A)"});
  CsvWriter csv({"surrogate", "diffusion", "area_um2", "delay_ps",
                 "discrepancy", "spearman_area"});
  bool all_with_beat_flowtune = true;
  bool any_without_beat_flowtune = false;
  std::vector<core::OptimizeTracePoint> mtl_trace;

  for (const std::string kind : {"mtl", "lostin", "cnn"}) {
    std::fprintf(stderr, "[fig6] training surrogate %s...\n", kind.c_str());
    clo::Rng srng(seed + 100);
    models::SurrogateConfig scfg;
    auto surrogate = models::make_surrogate(kind, circuit, scfg, srng);
    core::TrainConfig tcfg;
    tcfg.epochs = args.get_int("epochs", 60);
    const auto report =
        core::train_surrogate(*surrogate, embedding, dataset, tcfg, srng);

    for (const bool use_diffusion : {true, false}) {
      core::OptimizeParams oparams;
      oparams.omega = args.get_double("omega", 4.0);
      oparams.use_diffusion = use_diffusion;
      core::ContinuousOptimizer optimizer(*surrogate, diffusion, embedding,
                                          oparams);
      clo::Rng orng(seed + 7);
      double best_area = 1e300, best_delay = 1e300, disc = 0.0;
      const auto results =
          optimizer.run_restarts(orng, restarts, pool.get());
      for (int r = 0; r < restarts; ++r) {
        const auto& result = results[r];
        const auto q = evaluator.evaluate(result.sequence);
        best_area = std::min(best_area, q.area_um2);
        best_delay = std::min(best_delay, q.delay_ps);
        disc += result.discrepancy / restarts;
        if (kind == "mtl" && use_diffusion && r == 0) {
          mtl_trace = result.trace;
        }
      }
      table.add_row({kind, use_diffusion ? "yes" : "no",
                     fmt_double(best_area, 2), fmt_double(best_delay, 2),
                     fmt_double(disc, 3),
                     fmt_double(report.spearman_area, 3)});
      csv.add_row({kind, use_diffusion ? "yes" : "no",
                   fmt_double(best_area, 4), fmt_double(best_delay, 4),
                   fmt_double(disc, 4), fmt_double(report.spearman_area, 3)});
      // "Beats/matches" on the joint objective: not worse on both
      // metrics beyond a 2% tolerance (the paper's bars are read the
      // same way).
      if (use_diffusion && best_area > 1.02 * flowtune_area &&
          best_delay > 1.02 * flowtune_delay) {
        all_with_beat_flowtune = false;
      }
      if (!use_diffusion && best_area < flowtune_area &&
          best_delay < flowtune_delay) {
        any_without_beat_flowtune = true;  // dominated FlowTune outright
      }
    }
  }

  std::printf("%s", table.to_string().c_str());
  std::printf("original : area %.2f delay %.2f\n", original.area_um2,
              original.delay_ps);
  std::printf("FlowTune : area %.2f delay %.2f (reference line)\n",
              flowtune_area, flowtune_delay);
  std::printf(
      "\nPaper's Fig. 6 shape to check:\n"
      "  (1) every surrogate WITH diffusion beats/matches FlowTune: %s\n"
      "  (2) WITHOUT diffusion can hardly beat FlowTune: %s\n",
      all_with_beat_flowtune ? "yes" : "NO",
      any_without_beat_flowtune ? "violated (some did)" : "holds");

  // Fig. 4-style optimization trace for the MTL + diffusion run.
  std::printf("\nOptimization trace (MTL + diffusion, Eq. 13):\n");
  std::printf("%8s %14s %14s\n", "t", "discrepancy", "predicted F");
  for (const auto& p : mtl_trace) {
    std::printf("%8d %14.4f %14.4f\n", p.t, p.discrepancy,
                p.predicted_objective);
  }

  const std::string out = args.get("out", "fig6_ablation.csv");
  if (csv.write(out)) std::printf("wrote %s\n", out.c_str());
  {
    obs::Json report = obs::Json::object();
    report["schema"] = obs::Json(std::string("clo.report.v1"));
    report["bench"] = obs::Json(std::string("fig6_ablation"));
    const auto stats = evaluator.snapshot();
    obs::Json ev = obs::Json::object();
    ev["queries"] = obs::Json(static_cast<std::uint64_t>(stats.queries));
    ev["unique_runs"] =
        obs::Json(static_cast<std::uint64_t>(stats.unique_runs));
    ev["cache_hits"] = obs::Json(static_cast<std::uint64_t>(stats.cache_hits));
    ev["hit_rate"] = obs::Json(stats.hit_rate);
    ev["synth_seconds"] = obs::Json(stats.synth_seconds);
    report["evaluator"] = ev;
    bench::obs_finish(obs_opts, std::move(report));
  }
  return 0;
}
