// Reproduces Fig. 7 (and the illustrative Fig. 2): t-SNE projection of the
// feasible transformation embeddings together with optimized latent
// variables, with and without the diffusion model. Prints the retrieved
// sequences and their synthesized areas — the paper reports the
// no-diffusion area blowing up ~1.9x on `div`.
//
//   ./bench_fig7_tsne [--circuit div] [--dataset 80]
//   Output: console summary + fig7_tsne.csv (2-D points, labeled)

#include <cmath>
#include <cstdio>

#include "clo/circuits/generators.hpp"
#include "clo/core/dataset.hpp"
#include "clo/core/optimizer.hpp"
#include "clo/core/trainer.hpp"
#include "clo/core/tsne.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/util/cli.hpp"
#include "clo/util/csv.hpp"

int main(int argc, char** argv) {
  using namespace clo;
  CliArgs args(argc, argv);
  const std::string circuit_name = args.get("circuit", "div");
  const int dataset_size = args.get_int("dataset", 120);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 4));
  const int L = 20, d = 8;

  const aig::Aig circuit = circuits::make_benchmark(circuit_name);
  clo::Rng rng(seed);
  core::QorEvaluator evaluator(circuit);

  // Pretrain (surrogate + diffusion) on the target circuit.
  models::TransformEmbedding embedding(d, rng);
  std::fprintf(stderr, "[fig7] dataset (%d sequences on %s)...\n",
               dataset_size, circuit_name.c_str());
  const auto dataset = core::generate_dataset(evaluator, dataset_size, L, rng);
  models::SurrogateConfig scfg;
  auto surrogate = models::make_surrogate("mtl", circuit, scfg, rng);
  core::TrainConfig tcfg;
  tcfg.epochs = args.get_int("epochs", 60);
  core::train_surrogate(*surrogate, embedding, dataset, tcfg, rng);

  models::DiffusionConfig dcfg;
  dcfg.num_steps = args.get_int("steps", 60);
  models::DiffusionModel diffusion(dcfg, rng);
  {
    std::vector<std::vector<float>> data;
    for (const auto& seq : dataset.sequences) data.push_back(embedding.embed(seq));
    std::fprintf(stderr, "[fig7] training diffusion...\n");
    diffusion.train(data, args.get_int("diffusion-iters", 700), 16, 1e-3f, rng);
  }

  // Optimize with diffusion (Eq. 13) and without (Eq. 14 / Fig. 2a).
  // Multiple runs are averaged: at this reduced scale a single draw of
  // either variant is noisy (the paper plots one run at 170x our
  // training budget). The best run's latents feed the t-SNE plot.
  const int runs = args.get_int("runs", 5);
  core::OptimizeParams with_params;
  with_params.omega = args.get_double("omega", 4.0);
  core::ContinuousOptimizer with_diff(*surrogate, diffusion, embedding,
                                      with_params);
  core::OptimizeParams without_params;
  without_params.omega = args.get_double("omega", 4.0);
  without_params.use_diffusion = false;
  core::ContinuousOptimizer without_diff(*surrogate, diffusion, embedding,
                                         without_params);
  clo::Rng orng(seed + 1);
  core::OptimizeResult rw, rn;
  core::Qor qor_with{}, qor_without{};
  double with_area_mean = 0.0, without_area_mean = 0.0;
  double with_disc_mean = 0.0, without_disc_mean = 0.0;
  for (int r = 0; r < runs; ++r) {
    auto a = std::move(with_diff.run_restarts(orng, 1)[0]);
    auto b = std::move(without_diff.run_restarts(orng, 1)[0]);
    const auto qa = evaluator.evaluate(a.sequence);
    const auto qb = evaluator.evaluate(b.sequence);
    with_area_mean += qa.area_um2 / runs;
    without_area_mean += qb.area_um2 / runs;
    with_disc_mean += a.discrepancy / runs;
    without_disc_mean += b.discrepancy / runs;
    if (r == 0 || qa.area_um2 < qor_with.area_um2) {
      qor_with = qa;
      rw = std::move(a);
    }
    if (r == 0 || qb.area_um2 < qor_without.area_um2) {
      qor_without = qb;
      rn = std::move(b);
    }
  }

  std::printf("=== Fig. 7 on %s (mean of %d runs) ===\n",
              circuit_name.c_str(), runs);
  std::printf("with diffusion    : discrepancy %.4f  area %10.2f\n",
              with_disc_mean, with_area_mean);
  std::printf("  best sequence: [%s] (area %.2f)\n",
              opt::sequence_to_string(rw.sequence).c_str(),
              qor_with.area_um2);
  std::printf("without diffusion : discrepancy %.4f  area %10.2f\n",
              without_disc_mean, without_area_mean);
  std::printf("  best sequence: [%s] (area %.2f)\n",
              opt::sequence_to_string(rn.sequence).c_str(),
              qor_without.area_um2);
  std::printf(
      "\nPaper's Fig. 7 shape to check: without-diffusion discrepancy is "
      "much larger (%.2fx here) and its retrieved area is worse "
      "(paper: 1.9x on div; here: %.2fx on run means).\n",
      without_disc_mean / std::max(with_disc_mean, 1e-9),
      without_area_mean / std::max(with_area_mean, 1e-9));

  // ---- t-SNE projection ----------------------------------------------------
  // Points: the 7 feasible transformation embeddings (replicated with tiny
  // jitter to form visible clusters, as positions in training sequences
  // do), plus each position of both optimized latents.
  std::vector<std::vector<float>> points;
  std::vector<std::string> labels;
  clo::Rng jitter(seed + 2);
  for (int t = 0; t < opt::kNumTransforms; ++t) {
    for (int rep = 0; rep < 8; ++rep) {
      auto p = embedding.table()[t];
      for (auto& v : p) {
        v += 0.02f * static_cast<float>(jitter.next_gaussian());
      }
      points.push_back(std::move(p));
      labels.push_back(std::string("embed_") +
                       opt::transform_name(static_cast<opt::Transform>(t)));
    }
  }
  auto add_latent = [&](const std::vector<float>& latent,
                        const std::string& tag) {
    for (int pos = 0; pos < L; ++pos) {
      points.emplace_back(latent.begin() + pos * d,
                          latent.begin() + (pos + 1) * d);
      labels.push_back(tag);
    }
  };
  add_latent(rw.latent, "optimized_with_diffusion");
  add_latent(rn.latent, "optimized_without_diffusion");

  core::TsneParams tsne_params;
  tsne_params.iterations = args.get_int("tsne-iters", 300);
  clo::Rng trng(seed + 3);
  const auto projected = core::tsne(points, tsne_params, trng);

  CsvWriter csv({"label", "x", "y"});
  for (std::size_t i = 0; i < projected.size(); ++i) {
    csv.add_row({labels[i], fmt_double(projected[i].first, 4),
                 fmt_double(projected[i].second, 4)});
  }
  const std::string out = args.get("out", "fig7_tsne.csv");
  if (csv.write(out)) std::printf("wrote %s (plot x,y colored by label)\n",
                                  out.c_str());

  // Quantify the visual claim: mean 2-D distance from optimized points to
  // the nearest embedding cluster, with vs without diffusion.
  auto mean_dist_to_embeddings = [&](const std::string& tag) {
    double total = 0.0;
    int count = 0;
    for (std::size_t i = 0; i < projected.size(); ++i) {
      if (labels[i] != tag) continue;
      double best = 1e300;
      for (std::size_t j = 0; j < projected.size(); ++j) {
        if (labels[j].rfind("embed_", 0) != 0) continue;
        const double dx = projected[i].first - projected[j].first;
        const double dy = projected[i].second - projected[j].second;
        best = std::min(best, dx * dx + dy * dy);
      }
      total += std::sqrt(best);
      ++count;
    }
    return total / std::max(count, 1);
  };
  std::printf("t-SNE distance to nearest embedding cluster: with %.3f, "
              "without %.3f\n",
              mean_dist_to_embeddings("optimized_with_diffusion"),
              mean_dist_to_embeddings("optimized_without_diffusion"));
  return 0;
}
