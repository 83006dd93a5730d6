// Reproduces Fig. 5: per-query optimization runtime. Two accountings are
// reported:
//
//  * total query time — everything a user waits for when asking "give me a
//    good sequence for this circuit": for the baselines this includes the
//    real synthesis evaluations their search loops interleave; for ours it
//    is the latent-space optimization only (training is the paper's
//    "one-time effort", reported separately). This is where the paper's
//    structural claim lives: the continuous optimizer makes *zero*
//    synthesis calls at query time, so it wins by the cost of the
//    baselines' synthesis budget. The headline shape (Ours fastest,
//    5x-130x) is asserted on this column.
//
//  * algorithm-only time — the paper's literal Fig. 5 metric (ABC time
//    subtracted). NOTE: the paper compares its method against the
//    baselines' original Python/TensorFlow implementations; re-implemented
//    in the same C++ stack, the small RL/BO models are no longer the
//    bottleneck, so this column's ordering is not expected to match the
//    paper (see EXPERIMENTS.md). abcRL's per-step graph extraction still
//    makes it the slowest baseline here, as in the paper.
//
//   ./bench_fig5_runtime [--circuits ctrl,router,c432] [--budget 60]
//   Output: console table + fig5_runtime.csv
//
// Telemetry (shared harness flags): --metrics-out F streams clo.metrics.v1
// JSONL while the bench runs (--metrics-interval-ms N), --metrics-port P
// serves live Prometheus text on 127.0.0.1:P, --profile-out F writes the
// clo.profile.v1 span profile on exit.

#include <cstdio>
#include <sstream>

#include "clo/util/cli.hpp"
#include "clo/util/csv.hpp"
#include "clo/util/stats.hpp"
#include "harness.hpp"

namespace {

struct Timing {
  double algo = 0.0;
  double total = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace clo;
  CliArgs args(argc, argv);
  bench::ExperimentScale scale;
  scale.baseline_budget = args.get_int("budget", 60);
  scale.dataset_size = args.get_int("dataset", 200);
  scale.diffusion_steps = args.get_int("steps", 60);
  scale.restarts = args.get_int("restarts", 8);
  scale.seed = static_cast<std::uint64_t>(args.get_int("seed", 2));
  scale.threads = args.get_int("threads", 0);
  const bench::ObsOptions obs_opts = bench::obs_from_args(args);

  std::vector<std::string> names = {"ctrl", "router", "c432"};
  if (args.has("full")) names = bench::circuit_selection(true);
  if (args.has("circuits")) {
    names.clear();
    std::stringstream ss(args.get("circuits", ""));
    std::string tok;
    while (std::getline(ss, tok, ',')) names.push_back(tok);
  }
  const std::vector<std::string> methods = {"drills", "abcrl", "boils",
                                            "flowtune"};

  ConsoleTable table({"Circuit", "DRiLLS", "abcRL", "BOiLS", "FlowTune",
                      "Ours", "speedup(worst)", "speedup(best)"});
  ConsoleTable algo_table({"Circuit", "DRiLLS", "abcRL", "BOiLS", "FlowTune",
                           "Ours"});
  CsvWriter csv({"circuit", "method", "algorithm_seconds",
                 "total_query_seconds"});
  std::vector<double> speedups;
  bool abcrl_always_slowest_baseline = true;
  core::PipelineResult last_result;
  core::EvaluatorStats last_stats;

  for (const auto& name : names) {
    std::fprintf(stderr, "[fig5] %s ...\n", name.c_str());
    const aig::Aig circuit = circuits::make_benchmark(name);
    std::vector<Timing> timings;
    for (const auto& m : methods) {
      // Measure wall time around the whole optimize call = query total.
      Stopwatch watch;
      watch.start();
      const auto r = bench::run_baseline_method(m, circuit, scale);
      watch.stop();
      timings.push_back({r.algorithm_seconds, watch.seconds()});
      csv.add_row({name, r.method, fmt_double(r.algorithm_seconds, 4),
                   fmt_double(watch.seconds(), 4)});
    }
    const auto ours = bench::run_ours(circuit, scale, &last_result,
                                      &last_stats);
    const double ours_s = std::max(ours.algorithm_seconds, 1e-6);
    csv.add_row({name, "Ours", fmt_double(ours_s, 4), fmt_double(ours_s, 4)});
    csv.add_row({name, "Ours-training(one-time)",
                 fmt_double(ours.training_seconds, 4),
                 fmt_double(ours.training_seconds, 4)});

    std::vector<double> totals, algos;
    for (const auto& t : timings) {
      totals.push_back(t.total);
      algos.push_back(t.algo);
    }
    if (max_of(algos) > algos[1] + 1e-12) {
      abcrl_always_slowest_baseline = false;  // index 1 = abcRL
    }
    speedups.push_back(min_of(totals) / ours_s);
    speedups.push_back(max_of(totals) / ours_s);
    table.add_row({name, fmt_double(timings[0].total, 2),
                   fmt_double(timings[1].total, 2),
                   fmt_double(timings[2].total, 2),
                   fmt_double(timings[3].total, 2), fmt_double(ours_s, 2),
                   fmt_double(max_of(totals) / ours_s, 1) + "x",
                   fmt_double(min_of(totals) / ours_s, 1) + "x"});
    algo_table.add_row({name, fmt_double(timings[0].algo, 3),
                        fmt_double(timings[1].algo, 3),
                        fmt_double(timings[2].algo, 3),
                        fmt_double(timings[3].algo, 3),
                        fmt_double(ours_s, 3)});
  }

  std::printf("Total per-query optimization time (seconds; baselines "
              "include the synthesis their loops require, ours needs "
              "none):\n%s\n",
              table.to_string().c_str());
  std::printf("Algorithm-only time (paper's literal metric; see header "
              "note):\n%s\n",
              algo_table.to_string().c_str());
  std::printf(
      "Paper's Fig. 5 shape to check: Ours fastest per query (paper: "
      "5x-130x) -> observed %.1fx .. %.1fx; abcRL slowest baseline "
      "(algorithm time): %s\n",
      min_of(speedups), max_of(speedups),
      abcrl_always_slowest_baseline ? "yes" : "NO");
  const std::string out = args.get("out", "fig5_runtime.csv");
  if (csv.write(out)) std::printf("wrote %s\n", out.c_str());
  // The report carries the last circuit's full pipeline breakdown (the
  // per-circuit numbers are in the CSV).
  obs::Json report = core::pipeline_report(last_result, last_stats);
  report["bench"] = obs::Json(std::string("fig5_runtime"));
  bench::obs_finish(obs_opts, std::move(report));
  return 0;
}
