#include "clo/shell/shell.hpp"

#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include <iostream>

#include "clo/aig/io.hpp"
#include "clo/aig/simulate.hpp"
#include "clo/circuits/generators.hpp"
#include "clo/core/pipeline.hpp"
#include "clo/nn/kernel.hpp"
#include "clo/opt/transform.hpp"
#include "clo/sat/cec.hpp"
#include "clo/serve/server.hpp"
#include "clo/techmap/tech_map.hpp"
#include "clo/util/exporter.hpp"
#include "clo/util/fault.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/rng.hpp"

namespace clo::shell {
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::stringstream ss(line);
  std::string tok;
  while (ss >> tok) tokens.push_back(tok);
  return tokens;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

struct Shell::Command {
  std::string name;
  std::string help;
  /// Returns false to quit the shell; throws on errors.
  std::function<bool(Shell&, const std::vector<std::string>&, std::ostream&)>
      run;
};

Shell::Shell() : library_(techmap::CellLibrary::asap7()) {
  register_commands();
}

Shell::~Shell() {
  // A still-running in-shell daemon is torn down before the telemetry
  // artifacts so its counters are included in them.
  if (serve_server_ != nullptr) serve_server_->stop();
  // Stop the exporter first so its final JSONL record captures the
  // complete run before the summary artifacts below are written.
  if (exporter_ != nullptr) exporter_->stop();
  if (!trace_path_.empty()) {
    if (obs::write_trace_file(trace_path_)) {
      std::cerr << "wrote trace to " << trace_path_ << "\n";
    } else {
      std::cerr << "error: cannot write trace to " << trace_path_ << "\n";
    }
  }
  if (!profile_path_.empty()) {
    if (obs::write_json_file(profile_path_, obs::build_profile().to_json())) {
      std::cerr << "wrote profile to " << profile_path_ << "\n";
    } else {
      std::cerr << "error: cannot write profile to " << profile_path_ << "\n";
    }
  }
  if (print_metrics_) {
    std::cerr << obs::Registry::instance().snapshot().format_table();
  }
}

bool Shell::set_kernel_target(const std::string& name) {
  nn::kernel::Target t;
  if (!nn::kernel::parse_target(name.c_str(), &t)) return false;
  const nn::kernel::Target actual = nn::kernel::set_target(t);
  if (actual != t && name != "auto") {
    std::cerr << "note: kernel target " << name
              << " not supported on this host; using "
              << nn::kernel::target_name(actual) << "\n";
  }
  return true;
}

void Shell::set_trace_path(std::string path) {
  trace_path_ = std::move(path);
  obs::set_enabled(true);
}

void Shell::set_report_path(std::string path) {
  report_path_ = std::move(path);
  obs::set_enabled(true);
}

void Shell::set_print_metrics(bool on) {
  print_metrics_ = on;
  if (on) obs::set_enabled(true);
}

void Shell::set_metrics_out(std::string path) {
  metrics_out_ = std::move(path);
  obs::set_enabled(true);
}

void Shell::set_metrics_port(int port) {
  metrics_port_ = port;
  obs::set_enabled(true);
}

void Shell::set_profile_path(std::string path) {
  profile_path_ = std::move(path);
  obs::set_enabled(true);
}

void Shell::maybe_start_exporter() {
  if (exporter_attempted_) return;
  exporter_attempted_ = true;
  if (metrics_out_.empty() && metrics_port_ < 0) return;
  util::ExporterOptions options;
  options.metrics_path = metrics_out_;
  options.interval_ms = metrics_interval_ms_;
  options.port = metrics_port_;
  exporter_ = std::make_unique<util::Exporter>(std::move(options));
  if (!exporter_->start()) exporter_.reset();
}

aig::Aig& Shell::need_design() {
  if (!design_) {
    throw std::runtime_error("no design loaded (use `read` or `gen`)");
  }
  return *design_;
}

void Shell::register_commands() {
  auto stats_line = [](const aig::Aig& g) {
    std::ostringstream os;
    os << g.name() << ": i/o = " << g.num_pis() << "/" << g.num_pos()
       << "  and = " << g.num_ands() << "  lev = " << g.depth();
    return os.str();
  };

  commands_.push_back({"help", "help — list commands",
                       [](Shell& sh, const auto&, std::ostream& out) {
                         for (const auto& c : sh.commands_) {
                           out << "  " << c.help << "\n";
                         }
                         return true;
                       }});
  commands_.push_back(
      {"gen", "gen <benchmark> — build a named benchmark circuit",
       [stats_line](Shell& sh, const auto& args, std::ostream& out) {
         if (args.size() != 2) throw std::runtime_error("usage: gen <name>");
         sh.design_ = circuits::make_benchmark(args[1]);
         out << stats_line(*sh.design_) << "\n";
         return true;
       }});
  commands_.push_back(
      {"list", "list — list available benchmark circuits",
       [](Shell&, const auto&, std::ostream& out) {
         for (const auto& info : circuits::benchmark_catalog()) {
           out << "  " << info.name << " (" << info.suite << "): "
               << info.description << "\n";
         }
         return true;
       }});
  commands_.push_back(
      {"read", "read <file.aag|file.aig|file.bench> — load a netlist",
       [stats_line](Shell& sh, const auto& args, std::ostream& out) {
         if (args.size() != 2) throw std::runtime_error("usage: read <file>");
         if (ends_with(args[1], ".bench")) {
           sh.design_ = aig::read_bench_file(args[1]);
         } else {
           sh.design_ = aig::read_aiger_file(args[1]);
         }
         out << stats_line(*sh.design_) << "\n";
         return true;
       }});
  commands_.push_back(
      {"write", "write <file.aag|file.aig|file.bench|file.v> — save design",
       [](Shell& sh, const auto& args, std::ostream& out) {
         if (args.size() != 2) throw std::runtime_error("usage: write <file>");
         aig::Aig& g = sh.need_design();
         bool ok = true;
         if (ends_with(args[1], ".aag")) {
           ok = aig::write_aiger_ascii(g, args[1]);
         } else if (ends_with(args[1], ".bench")) {
           std::ofstream f(args[1]);
           ok = static_cast<bool>(f);
           if (ok) aig::write_bench(g, f);
         } else if (ends_with(args[1], ".v")) {
           std::ofstream f(args[1]);
           ok = static_cast<bool>(f);
           if (ok) {
             const auto mapped = techmap::tech_map(g, sh.library_);
             techmap::write_verilog(mapped, sh.library_, g, f);
           }
         } else {
           ok = aig::write_aiger_binary(g, args[1]);
         }
         if (!ok) throw std::runtime_error("cannot write " + args[1]);
         out << "wrote " << args[1] << "\n";
         return true;
       }});
  commands_.push_back({"ps", "ps — print design statistics",
                       [stats_line](Shell& sh, const auto&, std::ostream& out) {
                         out << stats_line(sh.need_design()) << "\n";
                         return true;
                       }});
  commands_.push_back(
      {"save", "save — snapshot the design for a later `cec`",
       [](Shell& sh, const auto&, std::ostream& out) {
         sh.saved_ = sh.need_design();
         out << "saved snapshot\n";
         return true;
       }});
  commands_.push_back(
      {"cec", "cec [file] — check equivalence vs file or snapshot",
       [](Shell& sh, const auto& args, std::ostream& out) {
         aig::Aig& g = sh.need_design();
         aig::Aig other;
         if (args.size() >= 2) {
           other = ends_with(args[1], ".bench") ? aig::read_bench_file(args[1])
                                                : aig::read_aiger_file(args[1]);
         } else if (sh.saved_) {
           other = *sh.saved_;
         } else {
           throw std::runtime_error("cec: no snapshot (use `save`) or file");
         }
         // Simulation pre-filter + miter SAT: "equivalent" is a proof
         // (UNSAT miter), not a sampling argument.
         const auto r = sat::check_equivalence(g, other);
         if (r.verdict == sat::CecVerdict::kEquivalent) {
           out << "Networks are equivalent (proved by " << r.method << ", "
               << r.patterns_simulated << " patterns, "
               << r.solver_stats.conflicts << " conflicts)\n";
           return true;
         }
         if (r.verdict == sat::CecVerdict::kNotEquivalent) {
           out << "NOT EQUIVALENT (found by " << r.method << ", PO "
               << r.failing_po << ", inputs ";
           for (bool b : r.counterexample) out << (b ? '1' : '0');
           out << ")\n";
           throw std::runtime_error("cec failed");
         }
         throw std::runtime_error("cec: inconclusive (budget exhausted)");
       }});
  // One command per transformation.
  for (opt::Transform t : opt::all_transforms()) {
    const std::string name = opt::transform_name(t);
    commands_.push_back(
        {name, name + " — apply the '" + name + "' transformation",
         [t, stats_line](Shell& sh, const auto&, std::ostream& out) {
           const auto s = opt::apply_transform(sh.need_design(), t);
           out << s.name << ": " << s.nodes_before << " -> " << s.nodes_after
               << " and, lev " << s.depth_before << " -> " << s.depth_after
               << "\n";
           return true;
         }});
  }
  commands_.push_back(
      {"seq", "seq <rw;rf;b;...> — apply a whole sequence",
       [stats_line](Shell& sh, const auto& args, std::ostream& out) {
         if (args.size() != 2) throw std::runtime_error("usage: seq <list>");
         aig::Aig& g = sh.need_design();
         opt::run_sequence(g, opt::parse_sequence(args[1]));
         out << stats_line(g) << "\n";
         return true;
       }});
  commands_.push_back(
      {"map", "map [-a] — technology map (delay-oriented; -a = area)",
       [](Shell& sh, const auto& args, std::ostream& out) {
         techmap::MapParams params;
         if (args.size() > 1 && args[1] == "-a") {
           params.objective = techmap::MapParams::Objective::kArea;
         }
         const auto r = techmap::tech_map(sh.need_design(), sh.library_,
                                          params);
         out << "area = " << r.area_um2 << " um^2  delay = " << r.delay_ps
             << " ps  cells = " << r.num_cells << "\n";
         std::map<std::string, int> histogram;
         for (const auto& inst : r.instances) {
           ++histogram[sh.library_.cell(inst.cell_index).name];
         }
         for (const auto& [name, count] : histogram) {
           out << "  " << name << " x" << count << "\n";
         }
         return true;
       }});
  commands_.push_back(
      {"sim", "sim <bits> — simulate one input vector (LSB = first PI)",
       [](Shell& sh, const auto& args, std::ostream& out) {
         aig::Aig& g = sh.need_design();
         if (args.size() != 2 || args[1].size() != g.num_pis()) {
           throw std::runtime_error("usage: sim <" +
                                    std::to_string(g.num_pis()) + " bits>");
         }
         std::vector<bool> in;
         for (char c : args[1]) in.push_back(c == '1');
         const auto outv = aig::simulate(g, in);
         out << "po: ";
         for (bool b : outv) out << (b ? '1' : '0');
         out << "\n";
         return true;
       }});
  commands_.push_back(
      {"tune",
       "tune [dataset] [restarts] — run the CLO pipeline on the design",
       [](Shell& sh, const auto& args, std::ostream& out) {
         core::PipelineConfig config;
         config.dataset_size = args.size() > 1 ? std::stoi(args[1]) : 80;
         config.restarts = args.size() > 2 ? std::stoi(args[2]) : 2;
         config.diffusion_steps = 60;
         config.threads = sh.threads_;
         config.checkpoint_dir = sh.checkpoint_dir_;
         config.resume = sh.resume_;
         config.verify = sh.verify_;
         core::QorEvaluator evaluator(sh.need_design());
         core::CloPipeline pipeline(config);
         core::PipelineResult r;
         try {
           r = pipeline.run(evaluator);
         } catch (const std::exception& e) {
           // Even a fatal run leaves an intact, parseable report behind
           // (the chaos-CI contract): status "failed", the error, and the
           // fault arming that produced it.
           if (!sh.report_path_.empty()) {
             obs::Json report = obs::Json::object();
             report["schema"] = obs::Json(std::string("clo.report.v1"));
             report["status"] = obs::Json(std::string("failed"));
             report["error"] = obs::Json(std::string(e.what()));
             const std::string fault = util::fault::describe();
             if (!fault.empty()) report["fault"] = obs::Json(fault);
             report["metrics"] =
                 obs::Registry::instance().snapshot().to_json();
             obs::write_json_file(sh.report_path_, report);
           }
           throw;
         }
         out << "original : area " << r.original.area_um2 << " delay "
             << r.original.delay_ps << "\n";
         out << "optimized: area " << r.best.area_um2 << " delay "
             << r.best.delay_ps << "\n";
         out << "sequence : " << opt::sequence_to_string(r.best_sequence)
             << "\n";
         if (r.resumed_phases > 0) {
           out << "resumed  : " << r.resumed_phases
               << " phase(s) from checkpoint\n";
         }
         if (!r.optimize_quarantined.empty() ||
             !r.validate_quarantined.empty()) {
           out << "quarantined: "
               << r.optimize_quarantined.size() +
                      r.validate_quarantined.size()
               << " restart(s)\n";
         }
         // No wall-clock in this line: tune's stdout is byte-identical
         // across thread counts; per-check latency lives in the report.
         if (!r.verify_verdict.empty()) {
           out << "verify   : " << r.verify_verdict << " ("
               << r.verification.size() << " check(s))\n";
         }
         if (!sh.report_path_.empty()) {
           const auto report = core::pipeline_report(r, evaluator.snapshot());
           if (!obs::write_json_file(sh.report_path_, report)) {
             throw std::runtime_error("cannot write report to " +
                                      sh.report_path_);
           }
           out << "report   : " << sh.report_path_ << "\n";
         }
         // A disproof is fatal — but only after the report (with the
         // counterexample's sequence and verdict) has been written.
         if (r.verify_verdict == "not_equivalent") {
           throw std::runtime_error(
               "verify: an optimized circuit is NOT equivalent to the "
               "original");
         }
         return true;
       }});
  commands_.push_back(
      {"metrics",
       "metrics [reset] — print the obs metrics table, name-sorted (or "
       "clear it)",
       [](Shell&, const auto& args, std::ostream& out) {
         if (args.size() > 1 && args[1] == "reset") {
           obs::Registry::instance().reset();
           out << "metrics reset\n";
           return true;
         }
         if (!obs::enabled()) {
           out << "observability is disabled (run with --metrics, --trace,"
                  " or --report)\n";
           return true;
         }
         out << obs::Registry::instance().snapshot().format_table();
         return true;
       }});
  commands_.push_back(
      {"profile",
       "profile — print the span-derived profile (per-path total/self/p50/"
       "p99)",
       [](Shell&, const auto&, std::ostream& out) {
         if (!obs::enabled()) {
           out << "observability is disabled (run with --trace,"
                  " --profile-out, or --metrics)\n";
           return true;
         }
         out << obs::build_profile().format_table();
         return true;
       }});
  commands_.push_back(
      {"threads",
       "threads [n] — set/show tune's worker threads (0 = hardware)",
       [](Shell& sh, const auto& args, std::ostream& out) {
         if (args.size() > 1) sh.threads_ = std::stoi(args[1]);
         out << "threads = " << sh.threads_ << "\n";
         return true;
       }});
  commands_.push_back(
      {"simd",
       "simd [scalar|avx2|auto] — set/show the nn kernel dispatch target",
       [](Shell& sh, const auto& args, std::ostream& out) {
         if (args.size() > 1 && !sh.set_kernel_target(args[1])) {
           throw std::runtime_error("usage: simd [scalar|avx2|auto]");
         }
         out << "kernel target = " << nn::kernel::active_target() << " (best "
             << nn::kernel::target_name(nn::kernel::best_supported_target())
             << ")\n";
         return true;
       }});
  commands_.push_back(
      {"checkpoint",
       "checkpoint [dir|off] — set/show tune's checkpoint directory",
       [](Shell& sh, const auto& args, std::ostream& out) {
         if (args.size() > 1) {
           sh.checkpoint_dir_ = args[1] == "off" ? "" : args[1];
         }
         out << "checkpoint dir = "
             << (sh.checkpoint_dir_.empty() ? "(off)" : sh.checkpoint_dir_)
             << "\n";
         return true;
       }});
  commands_.push_back(
      {"resume",
       "resume [on|off] — set/show whether tune resumes from checkpoints",
       [](Shell& sh, const auto& args, std::ostream& out) {
         if (args.size() > 1) {
           if (args[1] == "on") {
             sh.resume_ = true;
           } else if (args[1] == "off") {
             sh.resume_ = false;
           } else {
             throw std::runtime_error("usage: resume [on|off]");
           }
         }
         out << "resume = " << (sh.resume_ ? "on" : "off") << "\n";
         return true;
       }});
  commands_.push_back(
      {"verify",
       "verify [on|off] — set/show SAT verification of tuned sequences",
       [](Shell& sh, const auto& args, std::ostream& out) {
         if (args.size() > 1) {
           if (args[1] == "on") {
             sh.verify_ = true;
           } else if (args[1] == "off") {
             sh.verify_ = false;
           } else {
             throw std::runtime_error("usage: verify [on|off]");
           }
         }
         out << "verify = " << (sh.verify_ ? "on" : "off") << "\n";
         return true;
       }});
  commands_.push_back(
      {"fault",
       "fault <specs>|list|off — arm fault injection (site=N | site=pX)",
       [](Shell&, const auto& args, std::ostream& out) {
         if (args.size() != 2) {
           throw std::runtime_error("usage: fault <specs>|list|off");
         }
         if (args[1] == "list") {
           for (const auto& site : util::fault::known_sites()) {
             out << "  " << site << "\n";
           }
           return true;
         }
         if (args[1] == "off") {
           util::fault::disarm();
           out << "fault injection disarmed\n";
           return true;
         }
         util::fault::arm(args[1]);
         out << "armed: " << args[1] << "\n";
         return true;
       }});
  commands_.push_back(
      {"source", "source <script> — run commands from a file",
       [](Shell& sh, const auto& args, std::ostream& out) {
         if (args.size() != 2) throw std::runtime_error("usage: source <file>");
         std::ifstream f(args[1]);
         if (!f) throw std::runtime_error("cannot open " + args[1]);
         const int failures = sh.run_script(f, out);
         if (failures > 0) {
           throw std::runtime_error(std::to_string(failures) +
                                    " commands failed");
         }
         return true;
       }});
  commands_.push_back({"echo", "echo <text> — print text",
                       [](Shell&, const auto& args, std::ostream& out) {
                         for (std::size_t i = 1; i < args.size(); ++i) {
                           out << (i > 1 ? " " : "") << args[i];
                         }
                         out << "\n";
                         return true;
                       }});
  commands_.push_back(
      {"serve",
       "serve start [port] [registry-dir] | status | stop — clo.serve.v1 "
       "daemon",
       [](Shell& sh, const auto& args, std::ostream& out) {
         const std::string sub = args.size() >= 2 ? args[1] : "status";
         if (sub == "start") {
           if (sh.serve_server_ != nullptr) {
             throw std::runtime_error(
                 "serve: already running on 127.0.0.1:" +
                 std::to_string(sh.serve_server_->port()));
           }
           serve::ServerOptions options;
           options.port = args.size() >= 3 ? std::stoi(args[2]) : 0;
           if (args.size() >= 4) options.registry_dir = args[3];
           options.threads = sh.threads_;
           auto server = std::make_unique<serve::Server>(options);
           if (!server->start()) {
             throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                                      std::to_string(options.port));
           }
           sh.serve_server_ = std::move(server);
           out << "serving clo.serve.v1 on 127.0.0.1:"
               << sh.serve_server_->port() << "\n";
           return true;
         }
         if (sub == "stop") {
           if (sh.serve_server_ == nullptr) {
             throw std::runtime_error("serve: not running");
           }
           const auto s = sh.serve_server_->stats();
           sh.serve_server_->stop();
           sh.serve_server_.reset();
           out << "serve stopped (" << s.served << " request(s) served)\n";
           return true;
         }
         if (sub == "status") {
           if (sh.serve_server_ == nullptr) {
             out << "serve: not running\n";
             return true;
           }
           const auto s = sh.serve_server_->stats();
           out << "serving on 127.0.0.1:" << sh.serve_server_->port()
               << ": " << s.served << " served, " << s.shed
               << " shed, queue " << s.queue_depth << ", "
               << sh.serve_server_->registry().size() << " model(s), "
               << sh.serve_server_->registry().trainings()
               << " training(s)\n";
           return true;
         }
         throw std::runtime_error(
             "usage: serve start [port] [registry-dir] | status | stop");
       }});
  commands_.push_back({"quit", "quit — leave the shell",
                       [](Shell&, const auto&, std::ostream&) { return false; }});
}

bool Shell::execute(const std::string& line, std::ostream& out) {
  maybe_start_exporter();
  last_failed_ = false;
  const auto hash = line.find('#');
  const auto tokens = tokenize(hash == std::string::npos
                                   ? line
                                   : line.substr(0, hash));
  if (tokens.empty()) return true;
  for (const auto& command : commands_) {
    if (command.name != tokens[0]) continue;
    try {
      return command.run(*this, tokens, out);
    } catch (const std::exception& e) {
      out << "error: " << e.what() << "\n";
      last_failed_ = true;
      return true;
    }
  }
  out << "unknown command: " << tokens[0] << " (try `help`)\n";
  last_failed_ = true;
  return true;
}

int Shell::run_script(std::istream& in, std::ostream& out) {
  int failures = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!execute(line, out)) break;
    if (last_failed_) ++failures;
  }
  return failures;
}

}  // namespace clo::shell
