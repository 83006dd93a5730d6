#pragma once
// The benchmark workloads. Each builds its inputs from the seed,
// sets up (timed as setup_s), runs a closed loop of operations for the
// timed window, then checks every answer outside the window.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"

namespace clobench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// > 0: run exactly this many operations (per client) and ignore
  /// `seconds` — the self-test's deterministic mode.
  int ops = 0;
  /// Shortened scale for the self-test (tiny datasets and trainings).
  bool smoke = false;
  /// Private directory for the serve registry and reference checkpoints.
  std::string scratch;
};

struct Outcome {
  double setup_s = 0.0;
  std::vector<double> latency_ms;  ///< wall clock, one per timed operation
  double window_s = 0.0;           ///< wall clock of the whole timed window
  /// The latencies and the window the end-to-end metrics report: at the
  /// reference host speed (hostspeed.hpp) where the workload calibrates,
  /// else the wall clock. The window excludes calibration samples.
  std::vector<double> ref_latency_ms;
  double ref_window_s = 0.0;
  std::int64_t window_begin_ns = 0, window_end_ns = 0;
  double cpu_s = 0.0;              ///< process CPU time over the window
  std::uint64_t failed = 0;        ///< operations whose answer was wrong
  /// best / original QoR of every answer in the scored slice.
  std::vector<double> area_ratios, delay_ratios;
  /// Per-layer figures the program reports itself (phase timers,
  /// evaluator and server counters), keyed by BENCHMARK.json name.
  std::map<std::string, double> layers;
  /// Workload-specific end-to-end figures (tune_wall_s, hit_p50_ms, ...)
  /// with their units, printed as a detail line before the result.
  std::map<std::string, std::pair<double, std::string>> detail;
  /// The workload's requests as clo.serve.v1 lines (timed by the parse
  /// probe in traced runs).
  std::vector<std::string> request_lines;
};

Outcome run_optimize_warm(const RunOptions& options, Checker& checker);
Outcome run_serve_mixed(const RunOptions& options, Checker& checker);

/// Percentile with linear interpolation between closest ranks (p in [0,1]).
double percentile(std::vector<double> values, double p);

}  // namespace clobench
