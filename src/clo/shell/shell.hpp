#pragma once
// An ABC-style interactive shell over the library: load/generate circuits,
// apply transformations, map, check equivalence, run the continuous
// optimizer — scriptable (reads commands from any istream) and fully
// testable. The `clo` binary in tools/ wraps this in a REPL.

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clo/aig/aig.hpp"
#include "clo/techmap/cell_library.hpp"

namespace clo::util {
class Exporter;
}

namespace clo::serve {
class Server;
}

namespace clo::shell {

class Shell {
 public:
  Shell();
  ~Shell();

  /// Execute one command line; output goes to `out`.
  /// Returns false when the command asks to quit.
  bool execute(const std::string& line, std::ostream& out);

  /// Run a whole script (one command per line; '#' comments).
  /// Returns the number of failed commands.
  int run_script(std::istream& in, std::ostream& out);

  /// Whether the last command reported an error.
  bool last_failed() const { return last_failed_; }

  /// Current design (nullopt before any read/gen).
  const std::optional<aig::Aig>& design() const { return design_; }

  /// Worker threads used by `tune` (1 = serial, 0 = hardware concurrency).
  /// Also settable at runtime with the `threads` command.
  void set_threads(int n) { threads_ = n; }
  int threads() const { return threads_; }

  /// Force a named nn kernel dispatch target ("scalar", "avx2", or
  /// "auto" = best supported; the `--kernel-target` flag and the `simd`
  /// command). Forwards to the process-wide clo::nn::kernel dispatch
  /// switch. Requesting a
  /// target the host cannot run clamps down to the best supported one.
  /// Returns false when the name is unknown. All targets produce bitwise
  /// identical results — this exists for benchmarking and bisection.
  bool set_kernel_target(const std::string& name);

  /// Directory `tune` writes phase checkpoints into (empty = disabled).
  /// Also settable at runtime with the `checkpoint` command.
  void set_checkpoint_dir(std::string dir) { checkpoint_dir_ = std::move(dir); }
  const std::string& checkpoint_dir() const { return checkpoint_dir_; }

  /// Whether `tune` resumes from checkpoints in the checkpoint directory.
  void set_resume(bool on) { resume_ = on; }
  bool resume() const { return resume_; }

  /// Whether `tune` proves every surviving sequence equivalent to the
  /// pre-optimization circuit with the SAT-based checker (`--verify`).
  /// Also settable at runtime with the `verify` command.
  void set_verify(bool on) { verify_ = on; }
  bool verify() const { return verify_; }

  /// Observability hooks (each implies obs::set_enabled(true)):
  /// write a Chrome trace-event file on shutdown,
  void set_trace_path(std::string path);
  /// write the "clo.report.v1" JSON after every `tune`,
  void set_report_path(std::string path);
  /// print the metrics table to stderr on shutdown.
  void set_print_metrics(bool on);
  /// stream clo.metrics.v1 JSONL records to `path` while commands run,
  void set_metrics_out(std::string path);
  /// at this period (default 1000 ms),
  void set_metrics_interval_ms(int ms) { metrics_interval_ms_ = ms; }
  /// serve Prometheus text on 127.0.0.1:<port> while commands run
  /// (0 = ephemeral port),
  void set_metrics_port(int port);
  /// write the "clo.profile.v1" span profile on shutdown.
  void set_profile_path(std::string path);

 private:
  struct Command;
  void register_commands();
  aig::Aig& need_design();
  /// Start the telemetry exporter once, before the first command runs
  /// (after every --metrics-* flag has been parsed).
  void maybe_start_exporter();

  std::optional<aig::Aig> design_;
  std::optional<aig::Aig> saved_;  ///< snapshot for `cec` without a file
  techmap::CellLibrary library_;
  std::vector<Command> commands_;
  bool last_failed_ = false;
  int threads_ = 1;
  std::string checkpoint_dir_;
  bool resume_ = false;
  bool verify_ = false;
  std::string trace_path_;
  std::string report_path_;
  bool print_metrics_ = false;
  std::string metrics_out_;
  int metrics_interval_ms_ = 1000;
  int metrics_port_ = -1;
  std::string profile_path_;
  std::unique_ptr<util::Exporter> exporter_;
  bool exporter_attempted_ = false;
  /// In-shell clo.serve.v1 daemon (`serve start`); stopped on shutdown.
  std::unique_ptr<serve::Server> serve_server_;
};

}  // namespace clo::shell
