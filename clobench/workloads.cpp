#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "clo/circuits/generators.hpp"
#include "clo/core/pipeline.hpp"
#include "clo/serve/client.hpp"
#include "clo/serve/server.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/rng.hpp"
#include "hostspeed.hpp"
#include "trace.hpp"

namespace clobench {

using clo::core::CloPipeline;
using clo::core::PipelineConfig;
using clo::core::PipelineResult;
using clo::core::Qor;
using clo::core::QorEvaluator;
using clo::obs::Json;

namespace {

constexpr int kSteps = 60;  ///< T, the shell's quick scale

/// Pipeline scale of optimize_warm. Pretraining runs below the shell's
/// quick scale (dataset 24, 600 diffusion iterations) so a run fits the
/// benchmark's time budget.
struct Scale {
  int dataset = 8;
  int restarts = 16;
  int diffusion_iters = 100;
};

PipelineConfig make_config(std::uint64_t seed, const Scale& scale) {
  PipelineConfig c;
  c.dataset_size = scale.dataset;
  c.restarts = scale.restarts;
  c.diffusion_steps = kSteps;
  c.diffusion_iters = scale.diffusion_iters;
  c.seed = seed;
  c.threads = 1;
  return c;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double ms_since(std::int64_t begin_ns) {
  return static_cast<double>(now_ns() - begin_ns) * 1e-6;
}

/// The timed window: a closed loop runs while more() says so.
class Window {
 public:
  explicit Window(const RunOptions& options)
      : ops_(options.ops), seconds_(options.seconds) {}
  void start() {
    begin_ns_ = now_ns();
    cpu0_ = cpu_seconds();
  }
  /// Whether a loop that has completed `done` operations starts another.
  bool more(std::size_t done) const {
    if (ops_ > 0) return done < static_cast<std::size_t>(ops_);
    return done == 0 || elapsed() < seconds_;
  }
  double elapsed() const {
    return static_cast<double>(now_ns() - begin_ns_) * 1e-9;
  }
  void finish(Outcome* out) const {
    out->window_end_ns = now_ns();
    out->window_begin_ns = begin_ns_;
    out->window_s = static_cast<double>(out->window_end_ns - begin_ns_) * 1e-9;
    out->cpu_s = cpu_seconds() - cpu0_;
  }

 private:
  int ops_;
  double seconds_;
  std::int64_t begin_ns_ = 0;
  double cpu0_ = 0.0;
};

std::string request_line(const char* op, const std::string& circuit,
                         int dataset, int restarts, std::uint64_t seed,
                         const std::string* sequence = nullptr) {
  Json req = Json::object();
  req["op"] = op;
  req["circuit"] = circuit;
  if (sequence != nullptr) req["sequence"] = *sequence;
  req["dataset"] = dataset;
  req["restarts"] = restarts;
  req["seed"] = seed;
  return req.dump();
}

bool same(const Qor& a, const Qor& b) {
  return a.area_um2 == b.area_um2 && a.delay_ps == b.delay_ps;
}

/// The answer one tune reports, compared field by field.
struct TuneAnswer {
  std::string sequence;
  Qor best;
  Qor original;
  bool operator==(const TuneAnswer& o) const {
    return sequence == o.sequence && same(best, o.best) &&
           same(original, o.original);
  }
};

TuneAnswer answer_of(const PipelineResult& r) {
  return {clo::opt::sequence_to_string(r.best_sequence), r.best, r.original};
}

/// Checks one tune answer against the independent oracle: reported QoR
/// equals a replay, and the sequence is SAT-proven equivalent.
bool check_tune(Checker& checker, const std::string& circuit,
                const TuneAnswer& a, bool count) {
  const auto seq = clo::opt::parse_sequence(a.sequence);
  bool ok = same(checker.qor(circuit, {}, count), a.original);
  ok = same(checker.qor(circuit, seq, count), a.best) && ok;
  return checker.equivalent(circuit, seq) && ok;
}

void add_ratio(Outcome* out, const Qor& q, const Qor& original) {
  out->area_ratios.push_back(q.area_um2 / original.area_um2);
  out->delay_ratios.push_back(q.delay_ps / original.delay_ps);
}

/// Phase timers summed over pipeline results.
struct PhaseTotals {
  double label = 0, surrogate = 0, diffusion = 0, optimize = 0, validate = 0;
  double diffusion_iters = 0, optimize_calls = 0;
  void add_pretrain(const PipelineResult& r) {
    label += r.dataset_seconds;
    surrogate += r.surrogate_train_seconds;
    diffusion += r.diffusion_train_seconds;
    diffusion_iters += r.diffusion_report.iterations;
  }
  void add_optimize(const PipelineResult& r) {
    optimize += r.optimize_seconds;
    validate += r.validate_seconds;
    optimize_calls += 1;
  }
  /// Per-layer figures, each divided by `per` (passes, set-ups, ...).
  void report(Outcome* out, double per) const {
    auto& l = out->layers;
    l["core.dataset.label_s"] = label / per;
    l["core.trainer.surrogate_s"] = surrogate / per;
    l["models.diffusion.train_s"] = diffusion / per;
    l["core.pipeline.pretrain_s"] = (label + surrogate + diffusion) / per;
    l["models.diffusion.ms_per_iter"] =
        diffusion_iters > 0 ? diffusion * 1e3 / diffusion_iters : 0.0;
    l["core.optimizer.optimize_s"] =
        optimize_calls > 0 ? optimize / optimize_calls : 0.0;
    l["core.optimizer.ms_per_step"] =
        optimize_calls > 0 ? optimize * 1e3 / (optimize_calls * kSteps) : 0.0;
    l["core.pipeline.validate_s"] =
        optimize_calls > 0 ? validate / optimize_calls : 0.0;
  }
};

void report_evaluator(Outcome* out, const clo::core::EvaluatorStats& s) {
  auto& l = out->layers;
  l["core.evaluator.queries"] = static_cast<double>(s.queries);
  l["core.evaluator.unique_runs"] = static_cast<double>(s.unique_runs);
  l["core.evaluator.hit_rate"] =
      s.queries == 0 ? 0.0
                     : static_cast<double>(s.cache_hits) /
                           static_cast<double>(s.queries);
  l["core.evaluator.synth_s"] = s.synth_seconds;
}

void add_stats(clo::core::EvaluatorStats* sum,
               const clo::core::EvaluatorStats& s) {
  sum->queries += s.queries;
  sum->unique_runs += s.unique_runs;
  sum->cache_hits += s.cache_hits;
  sum->synth_seconds += s.synth_seconds;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

// ---------------------------------------------------------------------------
// optimize_warm: set-up pretrains c432 and makes one warm-up optimize();
// one operation is one CloPipeline::optimize() call.

Outcome run_optimize_warm(const RunOptions& options, Checker& checker) {
  const std::string name = "c432";
  Scale scale;
  if (options.smoke) scale = Scale{4, 4, 10};
  const PipelineConfig config = make_config(options.seed, scale);
  Outcome out;

  std::unique_ptr<QorEvaluator> evaluator;
  CloPipeline pipeline(config);
  PipelineResult warm;
  {
    Operation op("optimize_warm.setup");
    const std::int64_t begin = now_ns();
    clo::aig::Aig aig;
    {
      Span span("circuits.make");
      aig = clo::circuits::make_benchmark(name);
    }
    evaluator = std::make_unique<QorEvaluator>(std::move(aig));
    {
      Span span("core.pipeline.pretrain");
      pipeline.pretrain(*evaluator);
    }
    {
      Span span("core.pipeline.optimize");
      warm = pipeline.optimize(*evaluator);
    }
    out.setup_s = ms_since(begin) * 1e-3;
  }
  const TuneAnswer expected = answer_of(warm);

  PhaseTotals phases;
  phases.add_pretrain(warm);
  std::vector<char> matches;
  // Each call is timed between two calibration samples on this thread,
  // which does the call's work, and scaled to the reference host speed.
  HostClock host;
  host.sample();
  Window window(options);
  window.start();
  while (window.more(matches.size())) {
    Operation op("optimize_warm.call");
    const std::size_t segment = host.segment();
    const std::int64_t begin = now_ns();
    PipelineResult r;
    {
      Span span("core.pipeline.optimize");
      r = pipeline.optimize(*evaluator);
    }
    out.latency_ms.push_back(ms_since(begin));
    host.sample();
    out.ref_latency_ms.push_back(out.latency_ms.back() *
                                 host.factor(segment));
    phases.add_optimize(r);
    matches.push_back(answer_of(r) == expected ? 1 : 0);
  }
  window.finish(&out);
  out.ref_window_s = host.reference_s();
  out.detail["optimize_per_s"] = {
      static_cast<double>(matches.size()) / out.window_s, "1/s"};
  out.detail["host.chunk_ms"] = {host.chunk_ms(), "ms"};

  bool expected_ok = false;
  {
    Operation op("optimize_warm.check");
    expected_ok = check_tune(checker, name, expected, true);
  }
  for (const char m : matches) {
    if (!(m && expected_ok)) ++out.failed;
  }
  // Every call answers identically, so one ratio stands for all of them.
  add_ratio(&out, expected.best, expected.original);

  if (tracing()) {
    {
      Operation op("optimize_warm.replay");
      for (const auto& seq : pipeline.dataset().sequences) {
        checker.qor(name, seq, true);
      }
    }
    probe_inference(*pipeline.surrogate(), *pipeline.diffusion(),
                    *pipeline.embedding(), options.seed);
  }

  phases.report(&out, 1.0);
  report_evaluator(&out, evaluator->snapshot());
  out.request_lines.assign(
      matches.size(), request_line("tune", name, scale.dataset,
                                   scale.restarts, options.seed));
  out.detail["optimize_p50_ms"] = {percentile(out.latency_ms, 0.5), "ms"};
  out.detail["optimize_p90_ms"] = {percentile(out.latency_ms, 0.9), "ms"};
  return out;
}

// ---------------------------------------------------------------------------
// serve_mixed: an in-process clo serve daemon (2 sessions, a pool of one
// thread, a registry in a private directory) and 2 clients on persistent
// connections running a closed loop over a seeded request mix.

namespace {

// One circuit keeps the set-up (a pretraining at the daemon's fixed 600
// diffusion iterations) inside the benchmark's time budget.
const std::vector<std::string> kServeCircuits{"router"};
const std::string kTuneCircuit = "router";
constexpr int kFirstRestarts = 1;
constexpr int kSecondRestarts = 8;  ///< only in the known-defect probe
constexpr int kClients = 2;
constexpr int kBlock = 16;       ///< ops per shuffled block of the mix
constexpr int kScoredOps = 16;   ///< per client: the exact, scored slice
constexpr int kPoolPerCircuit = 3;

enum class Kind { kMiss, kTune, kBest, kAnswered };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kMiss: return "serve_mixed.miss";
    case Kind::kTune: return "serve_mixed.tune";
    case Kind::kBest: return "serve_mixed.best";
    case Kind::kAnswered: return "serve_mixed.answered";
  }
  return "serve_mixed.op";
}

/// One block of the mix: 2 misses (12.5%), 2 repeated tunes, 2
/// registry-best lookups and 10 repeats of answered sequences.
std::vector<Kind> make_block(clo::Rng& rng) {
  std::vector<Kind> block{Kind::kMiss, Kind::kMiss, Kind::kTune,
                          Kind::kTune, Kind::kBest, Kind::kBest};
  block.resize(kBlock, Kind::kAnswered);
  rng.shuffle(block);
  return block;
}

/// A random 20-step sequence with a fixed count of each pass (three of
/// each rewrite, refactor and resub variant, two balances): only the
/// order is random, so every miss does comparable synthesis work and the
/// miss latencies of a short run sample one distribution, not a spread of
/// cheap and expensive pass mixes.
clo::opt::Sequence fresh_sequence(clo::Rng& rng) {
  using clo::opt::Transform;
  clo::opt::Sequence seq;
  for (const Transform t : clo::opt::all_transforms()) {
    seq.insert(seq.end(), t == Transform::kB ? 2 : 3, t);
  }
  rng.shuffle(seq);
  return seq;
}

struct ServeOp {
  Kind kind = Kind::kAnswered;
  std::string circuit;
  std::string sequence;  ///< requested; empty for tune and registry-best
  std::string line;
  std::string response;  ///< empty on transport failure
  double ms = 0.0;
};

Json parse_response(const std::string& line) {
  try {
    return Json::parse(line);
  } catch (const std::exception&) {
    return Json::object();
  }
}

double number(const Json& j, const char* key) {
  const Json* v = j.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : std::nan("");
}

std::string text(const Json& j, const char* key) {
  const Json* v = j.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

bool ok_status(const Json& j) { return text(j, "status") == "ok"; }

/// A request/response on a persistent connection; throws on transport
/// failure (set-up only — timed operations record failures instead).
Json must_request(clo::serve::Client& client, const std::string& line) {
  std::string response;
  if (!client.request_line(line, &response, 600000)) {
    throw std::runtime_error("serve: no response to " + line);
  }
  Json j = parse_response(response);
  if (!ok_status(j)) {
    throw std::runtime_error("serve: error response " + response);
  }
  return j;
}

TuneAnswer tune_answer(const Json& r) {
  return {text(r, "best_sequence"),
          {number(r, "best_area_um2"), number(r, "best_delay_ps")},
          {number(r, "original_area_um2"), number(r, "original_delay_ps")}};
}

}  // namespace

Outcome run_serve_mixed(const RunOptions& options, Checker& checker) {
  const int dataset = options.smoke ? 4 : 8;
  const std::uint64_t seed = options.seed;
  namespace fs = std::filesystem;
  const fs::path scratch = fs::path(options.scratch) / "serve";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  Outcome out;

  clo::serve::ServerOptions server_options;
  server_options.registry_dir = (scratch / "registry").string();
  server_options.sessions = kClients;
  server_options.threads = 1;
  server_options.idle_timeout_ms = 600000;
  clo::serve::Server server(server_options);

  // Set-up. Each circuit is first tuned by a cold in-process
  // CloPipeline::run whose phase checkpoints land where the registry
  // keeps that entry — a registry trained earlier with the same config,
  // which the daemon then loads instead of retraining. These runs are
  // also the references the daemon's tune answers must equal. Then the
  // daemon starts, answers a tune per circuit, and answers a few random
  // sequences so the mix has repeats to ask for.
  clo::serve::Request base;
  base.dataset = dataset;
  base.restarts = kFirstRestarts;
  base.seed = seed;
  std::map<std::string, TuneAnswer> reference;
  std::map<std::string, std::string> entry_dir;
  std::map<std::string, std::vector<std::string>> pool;
  clo::Rng pool_rng(seed ^ 0x5e7e7ULL);
  PhaseTotals phases;
  {
    Operation op("serve_mixed.setup");
    const std::int64_t begin = now_ns();
    for (const auto& circuit : kServeCircuits) {
      PipelineConfig config = clo::serve::pipeline_config(base);
      clo::aig::Aig aig;
      {
        Span span("circuits.make");
        aig = clo::circuits::make_benchmark(circuit);
      }
      entry_dir[circuit] = server_options.registry_dir + "/" +
                           server.registry().key_for(aig, config);
      config.checkpoint_dir = entry_dir[circuit];
      QorEvaluator evaluator(std::move(aig));
      CloPipeline pipeline(config);
      PipelineResult r;
      {
        Span span("core.pipeline.run");
        r = pipeline.run(evaluator);
      }
      phases.add_pretrain(r);
      phases.add_optimize(r);
      reference[circuit] = answer_of(r);
    }
    if (!server.start()) throw std::runtime_error("serve: cannot start");
    clo::serve::Client client;
    if (!client.connect(server.port())) {
      throw std::runtime_error("serve: cannot connect");
    }
    for (const auto& circuit : kServeCircuits) {
      Span span("serve.client.request");
      const Json r = must_request(
          client, request_line("tune", circuit, dataset, kFirstRestarts,
                               seed));
      pool[circuit].push_back(text(r, "best_sequence"));
    }
    for (const auto& circuit : kServeCircuits) {
      for (int i = 0; i < kPoolPerCircuit; ++i) {
        const std::string seq = clo::opt::sequence_to_string(
            fresh_sequence(pool_rng));
        Span span("serve.client.request");
        must_request(client, request_line("qor", circuit, dataset,
                                          kFirstRestarts, seed, &seq));
        pool[circuit].push_back(seq);
      }
    }
    out.setup_s = ms_since(begin) * 1e-3;
  }

  // The timed window: each client works through its own seeded mix. The
  // daemon's threads do the window's work, on vCPUs a calibration on this
  // thread does not see (hostspeed.hpp), so its figures stay wall clock.
  std::vector<std::vector<ServeOp>> done(kClients);
  std::vector<double> think_ms(kClients, 0.0);
  Window window(options);
  window.start();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      clo::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(c));
      auto answered = pool;
      std::set<std::string> known;
      for (const auto& [circuit, seqs] : pool) {
        for (const auto& s : seqs) known.insert(circuit + "|" + s);
      }
      clo::serve::Client client;
      client.connect(server.port());
      std::vector<Kind> block;
      auto& ops = done[static_cast<std::size_t>(c)];
      while (window.more(ops.size())) {
        if (ops.size() % kBlock == 0) block = make_block(rng);
        ServeOp op;
        op.kind = block[ops.size() % kBlock];
        std::string& seq = op.sequence;
        switch (op.kind) {
          case Kind::kMiss:
            op.circuit = kServeCircuits[rng.next_below(kServeCircuits.size())];
            do {
              seq = clo::opt::sequence_to_string(fresh_sequence(rng));
            } while (!known.insert(op.circuit + "|" + seq).second);
            op.line = request_line("qor", op.circuit, dataset, kFirstRestarts,
                                   seed, &seq);
            break;
          case Kind::kTune:
            op.circuit = kTuneCircuit;
            op.line = request_line("tune", op.circuit, dataset,
                                   kFirstRestarts, seed);
            break;
          case Kind::kBest:
            op.circuit = kServeCircuits[rng.next_below(kServeCircuits.size())];
            op.line = request_line("qor", op.circuit, dataset, kFirstRestarts,
                                   seed);
            break;
          case Kind::kAnswered: {
            op.circuit = kServeCircuits[rng.next_below(kServeCircuits.size())];
            const auto& seqs = answered[op.circuit];
            seq = seqs[rng.next_below(seqs.size())];
            op.line = request_line("qor", op.circuit, dataset, kFirstRestarts,
                                   seed, &seq);
            break;
          }
        }
        // Think time: the client does a fixed piece of CPU work before
        // each request, as a caller prepares its query. A client that
        // fired its next request microseconds after the last answer saw
        // hit latencies whose median spread by 0.21 across ten seeds; with
        // this work, by 0.09 to 0.12 (README.md).
        think_ms[static_cast<std::size_t>(c)] += calibration_chunk_ms();
        Operation trace(kind_name(op.kind));
        const std::int64_t begin = now_ns();
        bool delivered = false;
        {
          Span span("serve.client.request");
          delivered = client.request_line(op.line, &op.response, 600000);
        }
        op.ms = ms_since(begin);
        if (!delivered) {
          op.response.clear();
          client.close();
          client.connect(server.port());
        } else if (op.kind == Kind::kMiss) {
          answered[op.circuit].push_back(op.sequence);
        }
        ops.push_back(std::move(op));
      }
    });
  }
  for (auto& t : clients) t.join();
  window.finish(&out);
  out.ref_window_s = out.window_s;
  double think_total_ms = 0.0;
  std::size_t requests = 0;
  for (int c = 0; c < kClients; ++c) {
    think_total_ms += think_ms[static_cast<std::size_t>(c)];
    requests += done[static_cast<std::size_t>(c)].size();
  }
  out.detail["host.chunk_ms"] = {
      think_total_ms / static_cast<double>(requests), "ms"};

  // Server-side counters, before the checks add any work.
  clo::core::EvaluatorStats stats;
  for (const auto& circuit : kServeCircuits) {
    add_stats(&stats, server.registry()
                          .get_or_train(circuit,
                                        clo::serve::pipeline_config(base))
                          ->evaluator.snapshot());
  }
  TuneAnswer second_count;  // the known-defect probe's answer
  {
    Operation op("serve_mixed.status");
    clo::serve::Client client;
    if (!client.connect(server.port())) {
      throw std::runtime_error("serve: cannot connect after the window");
    }
    Json status;
    {
      Span span("serve.client.request");
      status = must_request(client, "{\"op\":\"status\"}");
    }
    out.layers["serve.registry.trainings"] = number(status, "trainings");
    out.layers["serve.server.served"] = number(status, "served");
    out.layers["serve.server.shed"] = number(status, "shed");
    // A tune at a second restart count, kept out of the timed mix: the
    // registry key omits `restarts`, so the daemon answers it with the
    // first count's cached result. Recorded below, not counted as a
    // failed operation.
    Span span("serve.client.request");
    second_count = tune_answer(must_request(
        client, request_line("tune", kTuneCircuit, dataset, kSecondRestarts,
                             seed)));
  }
  server.stop();

  // The second restart count's reference resumes the set-up run's
  // pretraining checkpoints (restarts do not enter pretraining, and a
  // resumed run is bit-identical to an uninterrupted one).
  PipelineConfig resumed = clo::serve::pipeline_config(base);
  resumed.checkpoint_dir = entry_dir.at(kTuneCircuit);
  resumed.resume = true;
  {
    Operation op("serve_mixed.reference");
    PipelineConfig second = resumed;
    second.restarts = kSecondRestarts;
    QorEvaluator evaluator(clo::circuits::make_benchmark(kTuneCircuit));
    CloPipeline pipeline(second);
    Span span("core.pipeline.run");
    out.detail["known_defect.restarts_ignored"] = {
        second_count == answer_of(pipeline.run(evaluator)) ? 0.0 : 1.0,
        "count"};
  }

  std::map<std::string, Qor> original;
  {
    Operation op("serve_mixed.check");
    for (const auto& circuit : kServeCircuits) {
      original[circuit] = checker.qor(circuit, {}, true);
    }
  }
  // The scored slice (the first kScoredOps of each client) is checked
  // first so its replays are the ones counted.
  for (const bool scored : {true, false}) {
    for (const auto& ops : done) {
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if ((i < kScoredOps) != scored) continue;
        const ServeOp& op = ops[i];
        Operation trace("serve_mixed.check");
        const Json r = parse_response(op.response);
        bool ok = ok_status(r) && text(r, "circuit") == op.circuit;
        if (ok && op.kind == Kind::kTune) {
          const TuneAnswer got = tune_answer(r);
          ok = got == reference.at(op.circuit) &&
               check_tune(checker, op.circuit, got, scored);
          if (scored) add_ratio(&out, got.best, got.original);
        } else if (ok) {
          // The answer must be for the sequence that was asked for (for a
          // registry-best lookup, the set-up run's sequence), and its QoR
          // is scored against that sequence, not the one echoed back.
          const std::string& asked = op.kind == Kind::kBest
                                         ? reference.at(op.circuit).sequence
                                         : op.sequence;
          const Qor got{number(r, "area_um2"), number(r, "delay_ps")};
          ok = text(r, "sequence") == asked &&
               same(got, checker.qor(op.circuit,
                                     clo::opt::parse_sequence(asked), scored));
          if (scored) add_ratio(&out, got, original.at(op.circuit));
        }
        if (!ok) ++out.failed;
      }
    }
  }

  std::vector<double> hits, misses;
  for (const auto& ops : done) {
    for (const auto& op : ops) {
      out.latency_ms.push_back(op.ms);
      out.ref_latency_ms.push_back(op.ms);
      (op.kind == Kind::kMiss ? misses : hits).push_back(op.ms);
      out.request_lines.push_back(op.line);
    }
  }

  if (tracing()) {
    // The inference probe runs on the tune circuit's trained models,
    // restored from the registry entry.
    QorEvaluator evaluator(clo::circuits::make_benchmark(kTuneCircuit));
    CloPipeline pipeline(resumed);
    {
      Operation op("serve_mixed.probe_setup");
      pipeline.pretrain(evaluator);
    }
    probe_inference(*pipeline.surrogate(), *pipeline.diffusion(),
                    *pipeline.embedding(), seed);
  }
  fs::remove_all(scratch);

  phases.report(&out, 1.0);
  report_evaluator(&out, stats);
  out.detail["hit_p50_ms"] = {percentile(hits, 0.5), "ms"};
  out.detail["hit_p99_ms"] = {percentile(hits, 0.99), "ms"};
  out.detail["miss_p50_ms"] = {percentile(misses, 0.5), "ms"};
  out.detail["queries_per_s"] = {
      static_cast<double>(out.latency_ms.size()) / out.window_s, "1/s"};
  return out;
}

}  // namespace clobench
