// clo_bench_diff — the bench regression tracker: compare two BENCH_*.json
// artifacts (clo.bench.kernels.v1 today; any future clo.bench.* schema
// with a results[] array of named timings) and fail when the geometric
// mean of the per-case time ratios regresses past a threshold that is
// never tighter than the baseline's own noise.
//
//   clo_bench_diff OLD.json NEW.json [--max-regress PCT]
//
// Entries are keyed on (name, threads, target) — records missing either
// field default to threads=1 / target="default" — so a threaded AVX2
// run is only ever compared against a threaded AVX2 run of the same
// case, never against a serial or scalar one. For every key present in
// both files the timing is taken from the first of {simd_ns, scalar_ns,
// ns, seconds} each record carries (bench_kernels' `ns` is the median of
// its timed batches), and the ratio new/old is computed (> 1 = slower).
//
// Noise: when the baseline row also records quartiles (`ns_q1`, `ns_q3`),
// its relative spread is (q3 - q1) / ns; rows without them have spread 0.
// A case is flagged as regressed only when its ratio exceeds
// 1 + max(PCT/100, its baseline spread). The verdict is on the geomean of
// the ratios: exit 1 when it exceeds 1 + max(PCT/100, the median baseline
// spread over the shared cases) (PCT defaults to 10), exit 0 otherwise.
// Per-case regressions are listed either way so the CI log shows *what*
// moved even when the aggregate gate passes. Cases present in only one
// file are reported and skipped — adding or removing a bench must not
// fail the gate.
//
// CI runs this as a soft gate on the bench-smoke job (absolute
// nanoseconds are noisy across shared runners); the threshold knob is
// documented in README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clo/util/obs.hpp"

namespace {

using clo::obs::Json;

/// Comparison key: only entries matching on case name AND thread count
/// AND dispatch target are diffed against each other. Older artifacts
/// without the threads/target fields key as threads=1 / "default", which
/// keeps pre-threading baselines comparable with new serial runs.
std::string entry_key(const Json& entry, const std::string& name) {
  int threads = 1;
  std::string target = "default";
  const Json* t = entry.find("threads");
  if (t != nullptr && t->is_number()) {
    threads = static_cast<int>(t->as_double());
  }
  const Json* tg = entry.find("target");
  if (tg != nullptr && tg->is_string()) target = tg->as_string();
  return name + " [" + target + ",t" + std::to_string(threads) + "]";
}

/// A row's representative time and the relative spread of its samples.
struct Timing {
  double time = 0.0;
  double spread = 0.0;  ///< (q3 - q1) / time; 0 when not recorded
};

/// (name, threads, target) -> timing for every entry in the file's
/// results[].
std::map<std::string, Timing> load_times(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  const Json root = Json::parse(ss.str());
  const Json* results = root.find("results");
  if (results == nullptr || !results->is_array()) {
    throw std::runtime_error(path + ": no results[] array");
  }
  std::map<std::string, Timing> times;
  for (std::size_t i = 0; i < results->size(); ++i) {
    const Json& entry = results->at(i);
    const Json* name = entry.find("name");
    if (name == nullptr || !name->is_string()) continue;
    for (const char* key : {"simd_ns", "scalar_ns", "ns", "seconds"}) {
      const Json* t = entry.find(key);
      if (t != nullptr && t->is_number() && t->as_double() > 0.0) {
        Timing timing{t->as_double(), 0.0};
        const Json* q1 = entry.find("ns_q1");
        const Json* q3 = entry.find("ns_q3");
        if (std::string(key) == "ns" && q1 != nullptr && q1->is_number() &&
            q3 != nullptr && q3->is_number()) {
          timing.spread =
              std::max(0.0, (q3->as_double() - q1->as_double()) / timing.time);
        }
        times[entry_key(entry, name->as_string())] = timing;
        break;
      }
    }
  }
  if (times.empty()) {
    throw std::runtime_error(path + ": no timed cases in results[]");
  }
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double max_regress_pct = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-regress") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--max-regress needs a percentage\n");
        return 2;
      }
      max_regress_pct = std::atof(argv[++i]);
      continue;
    }
    paths.push_back(arg);
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: clo_bench_diff OLD.json NEW.json "
                 "[--max-regress PCT]\n");
    return 2;
  }

  std::map<std::string, Timing> old_times, new_times;
  try {
    old_times = load_times(paths[0]);
    new_times = load_times(paths[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clo_bench_diff: %s\n", e.what());
    return 2;
  }

  const double max_regress = max_regress_pct / 100.0;
  double log_sum = 0.0;
  std::vector<double> spreads;
  std::printf("%-40s %12s %12s %8s %8s\n", "case", "old", "new", "spread",
              "ratio");
  for (const auto& [name, old_t] : old_times) {
    const auto it = new_times.find(name);
    if (it == new_times.end()) {
      std::printf("%-40s %12.4g %12s %8s %8s\n", name.c_str(), old_t.time,
                  "-", "-", "gone");
      continue;
    }
    const double ratio = it->second.time / old_t.time;
    log_sum += std::log(ratio);
    spreads.push_back(old_t.spread);
    std::printf("%-40s %12.4g %12.4g %7.1f%% %7.3fx%s\n", name.c_str(),
                old_t.time, it->second.time, old_t.spread * 100.0, ratio,
                ratio > 1.0 + std::max(max_regress, old_t.spread)
                    ? "  <-- regressed"
                    : "");
  }
  for (const auto& [name, new_t] : new_times) {
    if (old_times.find(name) == old_times.end()) {
      std::printf("%-40s %12s %12.4g %8s %8s\n", name.c_str(), "-",
                  new_t.time, "-", "new");
    }
  }
  if (spreads.empty()) {
    std::fprintf(stderr, "clo_bench_diff: no shared cases to compare\n");
    return 2;
  }
  const int shared = static_cast<int>(spreads.size());
  const double geomean = std::exp(log_sum / shared);
  std::nth_element(spreads.begin(), spreads.begin() + shared / 2,
                   spreads.end());
  const double median_spread = spreads[shared / 2];
  const double limit = 1.0 + std::max(max_regress, median_spread);
  std::printf("geomean ratio over %d case(s): %.4fx (limit %.4fx: larger of "
              "--max-regress %.1f%% and median baseline spread %.1f%%)\n",
              shared, geomean, limit, max_regress_pct, median_spread * 100.0);
  if (geomean > limit) {
    std::printf("FAIL: geomean regression %.1f%% exceeds the limit\n",
                (geomean - 1.0) * 100.0);
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
