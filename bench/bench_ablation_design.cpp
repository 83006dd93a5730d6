// Ablation benches for the design choices DESIGN.md calls out (beyond the
// paper's own Fig. 6 ablation): guidance strength ω, the guidance ramp,
// the number of denoising steps T, the restart count, and the training
// dataset size. One circuit, shared dataset where possible.
//
//   ./bench_ablation_design [--circuit cavlc] [--dataset 120]
//   Output: console tables + ablation_design.csv

#include <algorithm>
#include <cstdio>

#include "clo/circuits/generators.hpp"
#include "clo/core/dataset.hpp"
#include "clo/core/optimizer.hpp"
#include "clo/core/trainer.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/util/cli.hpp"
#include "clo/util/csv.hpp"
#include "clo/util/stats.hpp"

namespace {

using namespace clo;

struct Setup {
  core::QorEvaluator* evaluator;
  models::TransformEmbedding* embedding;
  models::SurrogateModel* surrogate;
  core::Dataset* dataset;
};

/// Best weighted score over `restarts` runs of the optimizer.
double best_score(const Setup& s, models::DiffusionModel& diffusion,
                  const core::OptimizeParams& params, int restarts,
                  std::uint64_t seed, double* mean_disc = nullptr) {
  core::ContinuousOptimizer optimizer(*s.surrogate, diffusion, *s.embedding,
                                      params);
  clo::Rng rng(seed);
  double best = 1e300;
  double disc = 0.0;
  for (const auto& result : optimizer.run_restarts(rng, restarts)) {
    const auto q = s.evaluator->evaluate(result.sequence);
    const double score =
        0.5 * (q.area_um2 - s.dataset->area_mean) / s.dataset->area_std +
        0.5 * (q.delay_ps - s.dataset->delay_mean) / s.dataset->delay_std;
    best = std::min(best, score);
    disc += result.discrepancy / restarts;
  }
  if (mean_disc) *mean_disc = disc;
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string circuit_name = args.get("circuit", "cavlc");
  const int dataset_size = args.get_int("dataset", 120);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  const aig::Aig circuit = circuits::make_benchmark(circuit_name);
  clo::Rng rng(seed);
  core::QorEvaluator evaluator(circuit);
  models::TransformEmbedding embedding(8, rng);
  std::fprintf(stderr, "[ablation] dataset (%d sequences on %s)...\n",
               dataset_size, circuit_name.c_str());
  auto dataset = core::generate_dataset(evaluator, dataset_size, 20, rng);
  models::SurrogateConfig scfg;
  auto surrogate = models::make_surrogate("cnn", circuit, scfg, rng);
  core::TrainConfig tcfg;
  const auto report =
      core::train_surrogate(*surrogate, embedding, dataset, tcfg, rng);
  std::printf("surrogate spearman: area %.3f delay %.3f\n",
              report.spearman_area, report.spearman_delay);

  std::vector<std::vector<float>> embedded;
  for (const auto& s : dataset.sequences) embedded.push_back(embedding.embed(s));

  models::DiffusionConfig dcfg;
  dcfg.num_steps = 60;
  models::DiffusionModel diffusion(dcfg, rng);
  std::fprintf(stderr, "[ablation] training diffusion (T=60)...\n");
  diffusion.train(embedded, 600, 16, 1e-3f, rng);

  Setup setup{&evaluator, &embedding, surrogate.get(), &dataset};
  CsvWriter csv({"sweep", "value", "best_score", "mean_discrepancy"});

  // ---- omega sweep ---------------------------------------------------------
  std::printf("\n-- guidance strength omega (higher = follow surrogate harder)\n");
  std::printf("%8s %12s %14s\n", "omega", "best score", "discrepancy");
  for (double omega : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    core::OptimizeParams p;
    p.omega = omega;
    double disc;
    const double score = best_score(setup, diffusion, p, 3, seed + 1, &disc);
    std::printf("%8.1f %12.3f %14.3f\n", omega, score, disc);
    csv.add_row({"omega", fmt_double(omega, 1), fmt_double(score, 4),
                 fmt_double(disc, 4)});
  }

  // ---- guidance ramp on/off -----------------------------------------------
  std::printf("\n-- guidance ramp (omega_t = omega*(1-t/T)) vs constant\n");
  for (bool ramp : {true, false}) {
    core::OptimizeParams p;
    p.guidance_ramp = ramp;
    double disc;
    const double score = best_score(setup, diffusion, p, 3, seed + 2, &disc);
    std::printf("%8s %12.3f %14.3f\n", ramp ? "ramp" : "const", score, disc);
    csv.add_row({"ramp", ramp ? "on" : "off", fmt_double(score, 4),
                 fmt_double(disc, 4)});
  }

  // ---- restart count --------------------------------------------------------
  std::printf("\n-- restarts (the paper repeats 30x and keeps the best)\n");
  for (int restarts : {1, 2, 4, 8}) {
    core::OptimizeParams p;
    double disc;
    const double score =
        best_score(setup, diffusion, p, restarts, seed + 3, &disc);
    std::printf("%8d %12.3f %14.3f\n", restarts, score, disc);
    csv.add_row({"restarts", std::to_string(restarts), fmt_double(score, 4),
                 fmt_double(disc, 4)});
  }

  // ---- denoising steps T ----------------------------------------------------
  std::printf("\n-- denoising steps T (paper: 500)\n");
  for (int steps : {20, 40, 80}) {
    models::DiffusionConfig cfg2;
    cfg2.num_steps = steps;
    clo::Rng r2(seed + 4);
    models::DiffusionModel d2(cfg2, r2);
    d2.train(embedded, 600, 16, 1e-3f, r2);
    core::OptimizeParams p;
    double disc;
    const double score = best_score(setup, d2, p, 3, seed + 5, &disc);
    std::printf("%8d %12.3f %14.3f\n", steps, score, disc);
    csv.add_row({"steps", std::to_string(steps), fmt_double(score, 4),
                 fmt_double(disc, 4)});
  }

  // ---- dataset size (surrogate fidelity) -------------------------------------
  std::printf("\n-- training dataset size (paper: 20000)\n");
  for (int n : {30, 60, dataset_size}) {
    core::Dataset sub;
    sub.sequences.assign(dataset.sequences.begin(),
                         dataset.sequences.begin() + n);
    sub.qor.assign(dataset.qor.begin(), dataset.qor.begin() + n);
    sub.area_mean = dataset.area_mean;
    sub.area_std = dataset.area_std;
    sub.delay_mean = dataset.delay_mean;
    sub.delay_std = dataset.delay_std;
    clo::Rng r3(seed + 6);
    auto s2 = models::make_surrogate("cnn", circuit, scfg, r3);
    const auto rep = core::train_surrogate(*s2, embedding, sub, tcfg, r3);
    Setup setup2{&evaluator, &embedding, s2.get(), &dataset};
    core::OptimizeParams p;
    double disc;
    const double score = best_score(setup2, diffusion, p, 3, seed + 7, &disc);
    std::printf("%8d %12.3f %14.3f  (spearman A %.2f)\n", n, score, disc,
                rep.spearman_area);
    csv.add_row({"dataset", std::to_string(n), fmt_double(score, 4),
                 fmt_double(disc, 4)});
  }

  std::printf("\nscores are weighted z-scores over the random dataset "
              "(lower = better; 0 = dataset mean).\n");
  const std::string out = args.get("out", "ablation_design.csv");
  if (csv.write(out)) std::printf("wrote %s\n", out.c_str());
  return 0;
}
