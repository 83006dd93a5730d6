// clobench — the repository's end-to-end benchmark.
//
//   clobench --workload optimize_warm|serve_mixed --seed N
//            [--seconds S] [--trace 0|1] [--ops N] [--smoke]
//            [--scratch DIR] [--trace-out FILE]
//            [--commit SHA] [--source-digest HEX]
//
// Runs one workload single-threaded, checks every answer outside the
// timed window, and prints three JSON lines on stdout: the provenance of
// the result, the workload's own detail figures, and last the result
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 they are the per-layer
// set, measured from spans recorded around the benchmark's calls into the
// clo modules (written to --trace-out as JSON lines). See README.md.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "clo/nn/kernel.hpp"
#include "clo/opt/transform.hpp"
#include "clo/util/log.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/proc.hpp"
#include "hostspeed.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using clo::obs::Json;
using clobench::Outcome;

struct Metric {
  std::string name;
  std::string unit;
};

// Must match BENCHMARK.json (the self-test checks both lists).
const std::vector<Metric> kEndToEnd{
    {"setup_s", "s"},        {"op_p50_ms", "ms"},     {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},   {"area_ratio", "ratio"}, {"delay_ratio", "ratio"},
    {"ok_share", "share"},
};

std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> m{{"circuits.make_ms", "ms"}};
  for (const auto t : clo::opt::all_transforms()) {
    const std::string p = std::string("opt.") + clo::opt::transform_name(t);
    m.push_back({p + ".ms_per_call", "ms"});
    m.push_back({p + ".calls", "count"});
    m.push_back({p + ".accepted_moves", "count"});
  }
  const std::vector<Metric> rest{
      {"opt.ands_removed", "count"},
      {"techmap.ms_per_call", "ms"},
      {"techmap.calls", "count"},
      {"core.evaluator.queries", "count"},
      {"core.evaluator.unique_runs", "count"},
      {"core.evaluator.hit_rate", "ratio"},
      {"core.evaluator.synth_s", "s"},
      {"core.dataset.label_s", "s"},
      {"core.trainer.surrogate_s", "s"},
      {"core.pipeline.pretrain_s", "s"},
      {"core.pipeline.validate_s", "s"},
      {"core.optimizer.optimize_s", "s"},
      {"core.optimizer.ms_per_step", "ms"},
      {"models.diffusion.train_s", "s"},
      {"models.diffusion.ms_per_iter", "ms"},
      {"models.diffusion.predict_batch_ms", "ms"},
      {"models.surrogate.grad_batch_ms", "ms"},
      {"nn.unet.forward_ms", "ms"},
      {"nn.unet.backward_ms", "ms"},
      {"nn.adam.step_ms", "ms"},
      {"sat.cec.ms_per_check", "ms"},
      {"sat.cec.checks", "count"},
      {"serve.protocol.parse_us", "us"},
      {"serve.registry.trainings", "count"},
      {"serve.server.served", "count"},
      {"serve.server.shed", "count"},
      {"trace.overhead_pct", "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

Json metric(double value, const std::string& unit) {
  Json m = Json::object();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

// op_p50_ms and ops_per_s are at the reference host speed where the
// workload calibrates (hostspeed.hpp); the wall clocks are on the detail
// line.
std::map<std::string, double> end_to_end(const Outcome& out) {
  const double ops = static_cast<double>(out.latency_ms.size());
  return {
      {"setup_s", out.setup_s},
      {"op_p50_ms", clobench::percentile(out.ref_latency_ms, 0.5)},
      {"ops_per_s", ops / out.ref_window_s},
      {"peak_rss_mb",
       static_cast<double>(clo::util::proc::peak_rss_bytes()) * 1e-6},
      {"area_ratio", geomean(out.area_ratios)},
      {"delay_ratio", geomean(out.delay_ratios)},
      {"ok_share", (ops - static_cast<double>(out.failed)) / ops},
  };
}

std::map<std::string, double> per_layer(
    const Outcome& out, const clobench::Checker& checker,
    const std::vector<clobench::SpanRecord>& spans, double span_cost_ns,
    std::size_t window_spans) {
  using clobench::totals;
  std::map<std::string, double> v = out.layers;
  v["circuits.make_ms"] = totals(spans, "circuits.make").mean_ms();
  const auto& counts = checker.counts();
  for (const auto t : clo::opt::all_transforms()) {
    const std::string p = std::string("opt.") + clo::opt::transform_name(t);
    const auto i = static_cast<std::size_t>(t);
    v[p + ".ms_per_call"] = totals(spans, p).mean_ms();
    v[p + ".calls"] = static_cast<double>(counts.calls[i]);
    v[p + ".accepted_moves"] = static_cast<double>(counts.accepted_moves[i]);
  }
  v["opt.ands_removed"] = static_cast<double>(counts.ands_removed);
  v["techmap.ms_per_call"] = totals(spans, "techmap.map").mean_ms();
  v["techmap.calls"] = static_cast<double>(counts.techmap_calls);
  v["models.diffusion.predict_batch_ms"] =
      totals(spans, "models.diffusion.predict_batch").mean_ms();
  v["models.surrogate.grad_batch_ms"] =
      totals(spans, "models.surrogate.grad_batch").mean_ms();
  v["nn.unet.forward_ms"] = totals(spans, "nn.unet.forward").mean_ms();
  v["nn.unet.backward_ms"] = totals(spans, "nn.unet.backward").mean_ms();
  v["nn.adam.step_ms"] = totals(spans, "nn.adam.step").mean_ms();
  v["sat.cec.ms_per_check"] = totals(spans, "sat.cec").mean_ms();
  v["sat.cec.checks"] = static_cast<double>(checker.cec_checks());
  v["serve.protocol.parse_us"] =
      totals(spans, "serve.protocol.parse_request").mean_ms() * 1e3;
  // The cost the recorded spans added to the timed window, as a share of
  // it: spans recorded inside the window times the measured cost of one.
  v["trace.overhead_pct"] = static_cast<double>(window_spans) * span_cost_ns /
                            (out.window_s * 1e9) * 100.0;
  for (const char* counter : {"serve.registry.trainings",
                              "serve.server.served", "serve.server.shed"}) {
    v.emplace(counter, 0.0);
  }
  return v;
}

struct Args {
  clobench::RunOptions run;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr, "clobench: %s\n", message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  a.run.scratch = std::filesystem::temp_directory_path().string();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.run.workload = value();
    } else if (flag == "--seed") {
      a.run.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.run.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--ops") {
      a.run.ops = std::atoi(value().c_str());
    } else if (flag == "--smoke") {
      a.run.smoke = true;
    } else if (flag == "--scratch") {
      a.run.scratch = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--commit") {
      a.commit = value();
    } else if (flag == "--source-digest") {
      a.source_digest = value();
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.run.workload.empty()) usage("--workload is required");
  return a;
}

Json provenance(const Args& a) {
  Json p = Json::object();
  p["commit"] = a.commit;
  p["source_digest"] = a.source_digest;
  p["compiler"] = CLOBENCH_COMPILER;
  p["build_type"] = CLOBENCH_BUILD_TYPE;
  p["kernel_target"] = clo::nn::kernel::active_target();
  p["nproc"] = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  p["workload"] = a.run.workload;
  p["seed"] = a.run.seed;
  p["seconds"] = a.run.seconds;
  p["ops"] = a.run.ops;
  p["smoke"] = a.run.smoke;
  p["trace"] = a.trace;
  p["reference_chunk_ms"] = clobench::kReferenceChunkMs;
  return p;
}

int run(const Args& args) {
  clobench::Checker checker;
  Outcome out;
  const std::string& w = args.run.workload;
  if (w == "optimize_warm") {
    out = clobench::run_optimize_warm(args.run, checker);
  } else if (w == "serve_mixed") {
    out = clobench::run_serve_mixed(args.run, checker);
  } else {
    usage("unknown workload " + w);
  }
  if (out.latency_ms.empty()) throw std::runtime_error("no operation ran");

  Json prov = Json::object();
  prov["provenance"] = provenance(args);
  std::printf("%s\n", prov.dump().c_str());
  out.detail["cpu_ms_per_op"] = {
      out.cpu_s * 1e3 / static_cast<double>(out.latency_ms.size()), "ms"};
  out.detail["area_ratio"] = {geomean(out.area_ratios), "ratio"};
  out.detail["delay_ratio"] = {geomean(out.delay_ratios), "ratio"};
  Json detail = Json::object();
  for (const auto& [name, value] : out.detail) {
    detail[name] = metric(value.first, value.second);
  }
  Json detail_line = Json::object();
  detail_line["detail"] = std::move(detail);
  std::printf("%s\n", detail_line.dump().c_str());

  Json metrics = Json::object();
  if (args.trace) {
    clobench::probe_nn(args.run.seed);
    clobench::probe_parse(out.request_lines);
    const double cost = clobench::span_cost_ns();
    const auto spans = clobench::collect_spans();
    std::size_t window_spans = 0;
    for (const auto& s : spans) {
      if (s.start_ns >= out.window_begin_ns && s.end_ns <= out.window_end_ns) {
        ++window_spans;
      }
    }
    const auto values = per_layer(out, checker, spans, cost, window_spans);
    for (const auto& m : per_layer_metrics()) {
      metrics[m.name] = metric(values.at(m.name), m.unit);
    }
    if (!args.trace_out.empty()) {
      Json header = Json::object();
      header["provenance"] = provenance(args);
      header["ops"] = static_cast<double>(out.latency_ms.size());
      if (!clobench::write_spans(args.trace_out, header.dump(), spans)) {
        throw std::runtime_error("cannot write " + args.trace_out);
      }
    }
  } else {
    const auto values = end_to_end(out);
    for (const auto& m : kEndToEnd) {
      metrics[m.name] = metric(values.at(m.name), m.unit);
    }
  }
  Json result = Json::object();
  result["correct"] = out.failed == 0;
  result["attempted"] = static_cast<double>(out.latency_ms.size());
  result["failed"] = static_cast<double>(out.failed);
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  clo::set_log_level(clo::LogLevel::kWarn);
  clobench::set_tracing(args.trace);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clobench: %s: %s\n", args.run.workload.c_str(),
                 e.what());
    return 1;
  }
}
