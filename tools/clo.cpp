// The `clo` interactive shell: an ABC-style REPL over the library.
//
//   clo                      interactive session
//   clo -c "gen c432; rw; map"   run ';'-separated commands and exit
//   clo script.clo           run a script file
//   clo serve [flags]        optimization-as-a-service daemon (clo.serve.v1)
//   clo query [flags]        one request against a running daemon
//
// Options:
//   --threads N   worker threads for `tune` (default 0 = hardware
//                 concurrency; 1 runs fully serial)
//   --kernel-target T
//                 force a specific nn kernel dispatch target
//                 (scalar|avx2|auto); unsupported targets clamp
//                 down to the best the host can run (identical results)
//   --trace F     write a Chrome trace-event JSON (chrome://tracing,
//                 Perfetto) of the session to F on exit
//   --report F    write the machine-readable "clo.report.v1" JSON of the
//                 last `tune` run to F
//   --metrics     print the metrics table to stderr on exit
//   --metrics-out F       stream "clo.metrics.v1" JSONL records to F while
//                 the session runs (one snapshot per interval)
//   --metrics-interval-ms N   export period for --metrics-out (default
//                 1000)
//   --metrics-port P      serve the live metrics snapshot as Prometheus
//                 text on http://127.0.0.1:P/ (0 = ephemeral port)
//   --profile-out F       write the "clo.profile.v1" span-derived profile
//                 JSON to F on exit
//   --checkpoint-dir D   persist `tune` phase checkpoints into D
//   --resume      resume `tune` from valid checkpoints in the checkpoint
//                 directory (bit-identical to an uninterrupted run)
//   --verify      prove every sequence `tune` applies equivalent to the
//                 pre-optimization circuit with the SAT-based checker;
//                 verdict and per-check latency land in the report JSON
//   --fault SPEC  arm deterministic fault injection, e.g.
//                 "evaluator.synthesize=2,optimizer.restart=p0.5,seed=7";
//                 "--fault list" prints the registered sites and exits.
//                 The CLO_FAULT environment variable is honored too.
//
// Any other argument starting with "--", and an unknown --kernel-target,
// is a usage error: it is named on stderr and clo exits with status 2. An
// argument without the "--" prefix is a script path.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "clo/serve/client.hpp"
#include "clo/serve/protocol.hpp"
#include "clo/serve/server.hpp"
#include "clo/shell/shell.hpp"
#include "clo/util/cli.hpp"
#include "clo/util/fault.hpp"
#include "clo/util/obs.hpp"

namespace {

std::atomic<bool> g_signal{false};

void on_signal(int) { g_signal.store(true, std::memory_order_release); }

// `clo serve`: run the optimization daemon until SIGINT/SIGTERM or a
// client's shutdown request.
//   --serve-port P       listen port (default 0 = ephemeral)
//   --registry-dir D     persistent model registry root (default: memory)
//   --max-queue N        waiting connections beyond busy workers (def 32)
//   --sessions N         concurrent session workers (default 2)
//   --threads N          shared pipeline pool (0 = hardware concurrency)
//   --idle-timeout-ms N  close silent clients after N ms (default 5000)
//   --registry-max-entries N  LRU cap on in-memory models (0 = unlimited)
//   --registry-max-mb N       LRU cap on the registry dir (0 = unlimited)
//   --port-file F        write the bound port to F once listening
int run_serve(int argc, char** argv) {
  // Chaos CI arms fault injection on a live daemon via CLO_FAULT; the
  // daemon must survive every armed site (shed/fail the request, never
  // crash).
  clo::util::fault::arm_from_env();
  clo::CliArgs args(argc, argv);
  clo::serve::ServerOptions options;
  options.port = args.get_int("serve-port", 0);
  options.registry_dir = args.get("registry-dir", "");
  options.max_queue = args.get_int("max-queue", 32);
  options.sessions = args.get_int("sessions", 2);
  options.threads = args.get_int("threads", 0);
  options.idle_timeout_ms = args.get_int("idle-timeout-ms", 5000);
  options.registry_max_entries =
      static_cast<std::size_t>(args.get_int("registry-max-entries", 0));
  options.registry_max_mb =
      static_cast<std::size_t>(args.get_int("registry-max-mb", 0));
  clo::serve::Server server(options);
  if (!server.start()) {
    std::cerr << "clo serve: cannot bind 127.0.0.1:" << options.port << "\n";
    return 1;
  }
  const std::string port_file = args.get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream f(port_file);
    f << server.port() << "\n";
  }
  std::cout << "clo serve: listening on 127.0.0.1:" << server.port()
            << std::endl;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  // Poll instead of Server::wait(): a signal handler cannot safely notify
  // the server's condition variable, so the main thread watches both the
  // signal flag and the protocol-level shutdown request.
  while (!g_signal.load(std::memory_order_acquire) &&
         !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  return 0;
}

// `clo query`: one request to a running daemon, response line on stdout.
//   --port P        daemon port (required)
//   --op OP         tune | qor | status | cancel | shutdown (def status)
//   --circuit C     benchmark name (tune/qor/cancel)
//   --sequence S    "rw;rf;b" for qor (default: registry best)
//   --dataset N / --restarts N / --seed N   pipeline knobs
//   --id TAG        client tag, echoed back (cancel targets it)
//   --target TAG    cancel: id of the in-flight request to stop
//   --deadline-ms N server-side wall-clock budget (0 = unbounded)
//   --retries N     retry busy/transport failures N times with backoff
//   --report        attach the clo.report.v1 JSON to a tune response
//   --json RAW      send RAW verbatim instead of building the request
//   --timeout-ms N  response wait (default 600000 — cold tunes train)
// Exit status: 0 iff the daemon answered with "status": "ok".
int run_query(int argc, char** argv) {
  clo::CliArgs args(argc, argv);
  const int port = args.get_int("port", 0);
  if (port <= 0) {
    std::cerr << "clo query: --port is required\n";
    return 1;
  }
  const std::string raw_json = args.get("json", "");
  if (!raw_json.empty()) {
    // Raw mode stays byte-verbatim (and retry-free): it exists so tests
    // and CI can send arbitrary — including malformed — lines.
    std::string response;
    if (!clo::serve::query_once(port, raw_json, &response,
                                args.get_int("timeout-ms", 600000))) {
      std::cerr << "clo query: no response from 127.0.0.1:" << port << "\n";
      return 1;
    }
    std::cout << response << "\n";
    try {
      const clo::obs::Json doc = clo::obs::Json::parse(response);
      const clo::obs::Json* status = doc.find("status");
      return status != nullptr && status->is_string() &&
                     status->as_string() == "ok"
                 ? 0
                 : 1;
    } catch (const std::exception&) {
      return 1;
    }
  }
  clo::obs::Json req;
  {
    req = clo::obs::Json::object();
    req["op"] = args.get("op", "status");
    const std::string circuit = args.get("circuit", "");
    if (!circuit.empty()) req["circuit"] = circuit;
    const std::string sequence = args.get("sequence", "");
    if (!sequence.empty()) req["sequence"] = sequence;
    const std::string id = args.get("id", "");
    if (!id.empty()) req["id"] = id;
    const std::string target = args.get("target", "");
    if (!target.empty()) req["target"] = target;
    if (args.has("dataset")) req["dataset"] = args.get_int("dataset", 80);
    if (args.has("restarts")) req["restarts"] = args.get_int("restarts", 2);
    if (args.has("seed")) req["seed"] = args.get_int("seed", 1);
    if (args.has("deadline-ms")) {
      req["deadline_ms"] = args.get_int("deadline-ms", 0);
    }
    if (args.has("report")) req["report"] = true;
  }
  clo::serve::RetryPolicy policy;
  policy.retries = args.get_int("retries", 0);
  clo::obs::Json response;
  int attempts = 0;
  if (!clo::serve::query_with_retry(port, req, &response, policy,
                                    args.get_int("timeout-ms", 600000),
                                    &attempts)) {
    std::cerr << "clo query: no response from 127.0.0.1:" << port << " ("
              << attempts << " attempt(s))\n";
    return 1;
  }
  std::cout << response.dump() << "\n";
  const clo::obs::Json* status = response.find("status");
  return status != nullptr && status->is_string() &&
                 status->as_string() == "ok"
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string mode = argv[1];
    if (mode == "serve") return run_serve(argc - 1, argv + 1);
    if (mode == "query") return run_query(argc - 1, argv + 1);
  }
  // `--fault list` is a machine-readable query (CI word-splits the
  // output): handle it before the Shell, logging, or fault arming can
  // write anything, so stdout is exactly one site name per line.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--fault" &&
        std::string(argv[i + 1]) == "list") {
      for (const auto& site : clo::util::fault::known_sites()) {
        std::cout << site << "\n";
      }
      return 0;
    }
  }
  clo::shell::Shell shell;
  shell.set_threads(0);  // hardware concurrency unless overridden
  clo::util::fault::arm_from_env();
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::cerr << "--threads needs a value\n";
        return 1;
      }
      shell.set_threads(std::atoi(argv[++i]));
      continue;
    }
    if (arg == "--kernel-target") {
      if (i + 1 >= argc) {
        std::cerr << "--kernel-target needs scalar|avx2|auto\n";
        return 1;
      }
      if (!shell.set_kernel_target(argv[++i])) {
        std::cerr << "unknown kernel target '" << argv[i]
                  << "' (want scalar|avx2|auto)\n";
        return 2;
      }
      continue;
    }
    if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::cerr << "--trace needs a file name\n";
        return 1;
      }
      shell.set_trace_path(argv[++i]);
      continue;
    }
    if (arg == "--report") {
      if (i + 1 >= argc) {
        std::cerr << "--report needs a file name\n";
        return 1;
      }
      shell.set_report_path(argv[++i]);
      continue;
    }
    if (arg == "--metrics") {
      shell.set_print_metrics(true);
      continue;
    }
    if (arg == "--metrics-out") {
      if (i + 1 >= argc) {
        std::cerr << "--metrics-out needs a file name\n";
        return 1;
      }
      shell.set_metrics_out(argv[++i]);
      continue;
    }
    if (arg == "--metrics-interval-ms") {
      if (i + 1 >= argc) {
        std::cerr << "--metrics-interval-ms needs a value\n";
        return 1;
      }
      shell.set_metrics_interval_ms(std::atoi(argv[++i]));
      continue;
    }
    if (arg == "--metrics-port") {
      if (i + 1 >= argc) {
        std::cerr << "--metrics-port needs a port\n";
        return 1;
      }
      shell.set_metrics_port(std::atoi(argv[++i]));
      continue;
    }
    if (arg == "--profile-out") {
      if (i + 1 >= argc) {
        std::cerr << "--profile-out needs a file name\n";
        return 1;
      }
      shell.set_profile_path(argv[++i]);
      continue;
    }
    if (arg == "--checkpoint-dir") {
      if (i + 1 >= argc) {
        std::cerr << "--checkpoint-dir needs a directory\n";
        return 1;
      }
      shell.set_checkpoint_dir(argv[++i]);
      continue;
    }
    if (arg == "--resume") {
      shell.set_resume(true);
      continue;
    }
    if (arg == "--verify") {
      shell.set_verify(true);
      continue;
    }
    if (arg == "--fault") {
      if (i + 1 >= argc) {
        std::cerr << "--fault needs a spec (or 'list')\n";
        return 1;
      }
      const std::string spec = argv[++i];  // "list" was handled up front
      try {
        clo::util::fault::arm(spec);
      } catch (const std::exception& e) {
        std::cerr << "--fault: " << e.what() << "\n";
        return 1;
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option '" << arg << "'\n";
      return 2;
    }
    args.push_back(arg);
  }
  if (args.size() >= 2 && args[0] == "-c") {
    // Split on ';' into individual commands.
    std::stringstream ss(args[1]);
    std::string cmd;
    int failures = 0;
    while (std::getline(ss, cmd, ';')) {
      if (!shell.execute(cmd, std::cout)) break;
      if (shell.last_failed()) ++failures;
    }
    return failures == 0 ? 0 : 1;
  }
  if (!args.empty()) {
    std::ifstream f(args[0]);
    if (!f) {
      std::cerr << "cannot open " << args[0] << "\n";
      return 1;
    }
    return shell.run_script(f, std::cout) == 0 ? 0 : 1;
  }
  std::cout << "clo — continuous logic optimization shell (try `help`)\n";
  std::string line;
  while (true) {
    std::cout << "clo> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    if (!shell.execute(line, std::cout)) break;
  }
  return 0;
}
