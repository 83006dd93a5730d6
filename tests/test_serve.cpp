// Serving-path acceptance tests: the clo.serve.v1 protocol (parsing and
// hostile-input rejection), the model registry (single-flight get-or-train
// under a thundering herd, persistence across registry instances, corrupt
// entries skipped not fatal), and the daemon end to end (warm answers
// byte-identical to a cold pipeline run, warm QoR queries that never touch
// synthesis, silent clients that cannot stall a session worker, clients
// that disconnect mid-response without killing the daemon, and bounded
// backpressure when every worker is busy).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "clo/circuits/generators.hpp"
#include "clo/core/pipeline.hpp"
#include "clo/opt/transform.hpp"
#include "clo/serve/client.hpp"
#include "clo/serve/protocol.hpp"
#include "clo/serve/registry.hpp"
#include "clo/serve/server.hpp"
#include "clo/util/net.hpp"
#include "clo/util/thread_pool.hpp"

namespace {

using namespace clo;

std::string temp_dir(const char* name) {
  const std::string path = testing::TempDir() + name;
  std::filesystem::remove_all(path);
  return path;
}

/// Small-but-real pipeline config for registry tests (a few hundred ms).
core::PipelineConfig tiny_config() {
  core::PipelineConfig config;
  config.dataset_size = 8;
  config.diffusion_steps = 8;
  config.diffusion_iters = 20;
  config.restarts = 1;
  config.surrogate_train.epochs = 4;
  config.seed = 1;
  return config;
}

// ---------------------------------------------------------------------------
// Protocol.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, ParsesTuneRequestWithDefaults) {
  const auto req = serve::parse_request(
      R"({"op":"tune","circuit":"ctrl","id":"r1"})");
  EXPECT_EQ(req.op, serve::Request::Op::kTune);
  EXPECT_EQ(req.circuit, "ctrl");
  EXPECT_EQ(req.id, "r1");
  // Defaults mirror the shell `tune` command.
  EXPECT_EQ(req.dataset, 80);
  EXPECT_EQ(req.restarts, 2);
  EXPECT_EQ(req.seed, 1u);
  EXPECT_FALSE(req.verify);
  const auto config = serve::pipeline_config(req);
  EXPECT_EQ(config.dataset_size, 80);
  EXPECT_EQ(config.restarts, 2);
  EXPECT_EQ(config.diffusion_steps, 60);
}

TEST(ServeProtocol, ParsesExplicitKnobs) {
  const auto req = serve::parse_request(
      R"({"op":"qor","circuit":"c432","sequence":"rw;rf;b","dataset":16,)"
      R"("restarts":3,"seed":7,"verify":true})");
  EXPECT_EQ(req.op, serve::Request::Op::kQor);
  EXPECT_EQ(req.sequence, "rw;rf;b");
  EXPECT_EQ(req.dataset, 16);
  EXPECT_EQ(req.restarts, 3);
  EXPECT_EQ(req.seed, 7u);
  EXPECT_TRUE(req.verify);
}

TEST(ServeProtocol, RejectsHostileInput) {
  EXPECT_THROW(serve::parse_request("not json at all"), std::runtime_error);
  EXPECT_THROW(serve::parse_request("[1,2,3]"), std::runtime_error);
  EXPECT_THROW(serve::parse_request(R"({"circuit":"ctrl"})"),
               std::runtime_error);  // missing op
  EXPECT_THROW(serve::parse_request(R"({"op":"explode"})"),
               std::runtime_error);  // unknown op
  EXPECT_THROW(serve::parse_request(R"({"op":"tune"})"),
               std::runtime_error);  // tune without circuit
  EXPECT_THROW(
      serve::parse_request(R"({"op":"tune","circuit":"ctrl","dataset":2})"),
      std::runtime_error);  // below range
  EXPECT_THROW(serve::parse_request(
                   R"({"op":"tune","circuit":"ctrl","restarts":99999})"),
               std::runtime_error);  // above range
  EXPECT_THROW(
      serve::parse_request(R"({"op":"tune","circuit":"ctrl","seed":"x"})"),
      std::runtime_error);  // wrong type
}

TEST(ServeProtocol, StatusAndShutdownNeedNoCircuit) {
  EXPECT_EQ(serve::parse_request(R"({"op":"status"})").op,
            serve::Request::Op::kStatus);
  EXPECT_EQ(serve::parse_request(R"({"op":"shutdown"})").op,
            serve::Request::Op::kShutdown);
}

// ---------------------------------------------------------------------------
// Model registry.
// ---------------------------------------------------------------------------

TEST(ServeRegistry, GetOrTrainRaceTrainsExactlyOnce) {
  serve::ModelRegistry registry({/*dir=*/"", /*pool=*/nullptr});
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<serve::ModelRegistry::Entry>> entries(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      try {
        entries[static_cast<std::size_t>(i)] =
            registry.get_or_train("ctrl", tiny_config());
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  // Single-flight: one pretraining run, every thread got the same entry.
  EXPECT_EQ(registry.trainings(), 1u);
  EXPECT_EQ(registry.size(), 1u);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(entries[static_cast<std::size_t>(i)].get(), entries[0].get());
  }
}

TEST(ServeRegistry, UnknownCircuitThrowsAndReleasesInflight) {
  serve::ModelRegistry registry({/*dir=*/"", /*pool=*/nullptr});
  EXPECT_THROW(registry.get_or_train("no-such-circuit", tiny_config()),
               std::invalid_argument);
  // The failure must not leave a stuck in-flight slot behind.
  auto entry = registry.get_or_train("ctrl", tiny_config());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ServeRegistry, PersistsAcrossInstances) {
  const std::string dir = temp_dir("serve_registry_persist");
  opt::Sequence first_best;
  {
    serve::ModelRegistry registry({dir, /*pool=*/nullptr});
    auto entry = registry.get_or_train("ctrl", tiny_config());
    EXPECT_EQ(entry->resumed_phases, 0);  // cold: nothing on disk yet
    first_best = entry->pipeline.optimize(entry->evaluator).best_sequence;
  }
  {
    // A fresh registry (daemon restart) must load all three phases from
    // the CLOCKPT1 files and optimize to the identical sequence.
    serve::ModelRegistry registry({dir, /*pool=*/nullptr});
    auto entry = registry.get_or_train("ctrl", tiny_config());
    EXPECT_EQ(entry->resumed_phases, 3);
    const auto result = entry->pipeline.optimize(entry->evaluator);
    EXPECT_EQ(opt::sequence_to_string(result.best_sequence),
              opt::sequence_to_string(first_best));
  }
}

TEST(ServeRegistry, CorruptEntryIsSkippedAndRetrained) {
  const std::string dir = temp_dir("serve_registry_corrupt");
  {
    serve::ModelRegistry registry({dir, /*pool=*/nullptr});
    registry.get_or_train("ctrl", tiny_config());
  }
  // Truncate/garbage every checkpoint in the entry.
  for (const auto& file : std::filesystem::recursive_directory_iterator(dir)) {
    if (!file.is_regular_file()) continue;
    std::ofstream f(file.path(), std::ios::trunc | std::ios::binary);
    f << "garbage, not a CLOCKPT1 container";
  }
  // A corrupt entry must be skipped (warn + retrain), never abort the
  // daemon or poison the registry.
  serve::ModelRegistry registry({dir, /*pool=*/nullptr});
  auto entry = registry.get_or_train("ctrl", tiny_config());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->resumed_phases, 0);
  EXPECT_EQ(registry.trainings(), 1u);
}

// ---------------------------------------------------------------------------
// Daemon end to end.
// ---------------------------------------------------------------------------

class ServeE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::ServerOptions options;
    options.port = 0;  // ephemeral
    options.sessions = 2;
    options.max_queue = 4;
    // A pool of two: every answer must still match a serial cold run.
    options.threads = 2;
    options.idle_timeout_ms = 2000;
    server = std::make_unique<serve::Server>(options);
    ASSERT_TRUE(server->start());
    ASSERT_GT(server->port(), 0);
  }
  void TearDown() override { server->stop(); }

  static obs::Json request(serve::Client& client, const std::string& line) {
    obs::Json response;
    const obs::Json req = obs::Json::parse(line);
    EXPECT_TRUE(client.request(req, &response, /*timeout_ms=*/120000));
    return response;
  }

  static const obs::Json* field(const obs::Json& doc, const char* key) {
    const obs::Json* v = doc.find(key);
    EXPECT_NE(v, nullptr) << "missing field " << key << " in " << doc.dump();
    return v;
  }

  /// The cold reference for a request: the same config through
  /// CloPipeline::run directly, serially — what the CLI would print.
  static core::PipelineResult cold_run(const std::string& line) {
    const auto config = serve::pipeline_config(serve::parse_request(line));
    core::QorEvaluator evaluator(circuits::make_benchmark("ctrl"));
    core::CloPipeline pipeline(config);
    return pipeline.run(evaluator);
  }

  std::unique_ptr<serve::Server> server;
};

TEST_F(ServeE2E, WarmTuneIsByteIdenticalToColdPipelineRun) {
  serve::Client client;
  ASSERT_TRUE(client.connect(server->port()));
  const std::string tune_line =
      R"({"op":"tune","circuit":"ctrl","dataset":16,"restarts":1})";

  const obs::Json cold = request(client, tune_line);
  ASSERT_EQ(field(cold, "status")->as_string(), "ok") << cold.dump();
  EXPECT_FALSE(field(cold, "warm")->as_bool());
  const std::string served_seq = field(cold, "best_sequence")->as_string();

  // Same connection, same request: answered from the registry cache.
  const obs::Json warm = request(client, tune_line);
  ASSERT_EQ(field(warm, "status")->as_string(), "ok");
  EXPECT_TRUE(field(warm, "warm")->as_bool());
  EXPECT_EQ(field(warm, "best_sequence")->as_string(), served_seq);
  EXPECT_EQ(field(warm, "best_area_um2")->as_double(),
            field(cold, "best_area_um2")->as_double());
  EXPECT_EQ(server->registry().trainings(), 1u);

  // Cold reference: the same config through CloPipeline::run directly —
  // the serve answer must be byte-identical to what the CLI would print.
  const auto reference = cold_run(tune_line);
  EXPECT_EQ(opt::sequence_to_string(reference.best_sequence), served_seq);
}

TEST_F(ServeE2E, TuneAnswersEachRestartCountLikeAColdRun) {
  // restarts is left out of the registry key (it does not touch
  // pretraining), so both counts share one trained entry — but each count
  // must get its own optimize() and answer exactly what a cold serial
  // run of that config prints.
  for (const int restarts : {1, 3}) {
    const std::string line =
        R"({"op":"tune","circuit":"ctrl","dataset":16,"restarts":)" +
        std::to_string(restarts) + "}";
    const auto reference = cold_run(line);
    // Connect after the cold run, which outlasts the idle timeout.
    serve::Client client;
    ASSERT_TRUE(client.connect(server->port()));
    for (const bool warm : {false, true}) {
      const obs::Json r = request(client, line);
      ASSERT_EQ(field(r, "status")->as_string(), "ok") << r.dump();
      EXPECT_EQ(field(r, "warm")->as_bool(), warm) << "restarts " << restarts;
      EXPECT_EQ(field(r, "best_sequence")->as_string(),
                opt::sequence_to_string(reference.best_sequence))
          << "restarts " << restarts;
      EXPECT_EQ(field(r, "best_area_um2")->as_double(),
                reference.best.area_um2);
      EXPECT_EQ(field(r, "best_delay_ps")->as_double(),
                reference.best.delay_ps);
      EXPECT_EQ(field(r, "original_area_um2")->as_double(),
                reference.original.area_um2);
    }
  }
  EXPECT_EQ(server->registry().trainings(), 1u);
}

TEST_F(ServeE2E, WarmQorQueriesNeverTouchSynthesis) {
  serve::Client client;
  ASSERT_TRUE(client.connect(server->port()));
  const std::string qor_line =
      R"({"op":"qor","circuit":"ctrl","dataset":16,"restarts":1})";
  const obs::Json first = request(client, qor_line);
  ASSERT_EQ(field(first, "status")->as_string(), "ok") << first.dump();
  const double runs_before =
      field(*field(first, "evaluator"), "unique_runs")->as_double();
  for (int i = 0; i < 5; ++i) {
    const obs::Json again = request(client, qor_line);
    ASSERT_EQ(field(again, "status")->as_string(), "ok");
    EXPECT_EQ(field(again, "area_um2")->as_double(),
              field(first, "area_um2")->as_double());
    // The synthesis-run counter must not move: every warm answer comes
    // from the registry's cached result + the evaluator memo table.
    EXPECT_EQ(
        field(*field(again, "evaluator"), "unique_runs")->as_double(),
        runs_before);
  }
  EXPECT_EQ(server->registry().trainings(), 1u);
}

TEST_F(ServeE2E, BadRequestsAnswerErrorsAndKeepServing) {
  serve::Client client;
  ASSERT_TRUE(client.connect(server->port()));
  std::string raw;
  ASSERT_TRUE(client.request_line("this is not json", &raw));
  obs::Json err = obs::Json::parse(raw);
  EXPECT_EQ(field(err, "status")->as_string(), "error");
  // Unknown circuit: error response, same connection keeps working.
  const obs::Json bad =
      request(client, R"({"op":"qor","circuit":"nope","dataset":16})");
  EXPECT_EQ(field(bad, "status")->as_string(), "error");
  const obs::Json status = request(client, R"({"op":"status"})");
  EXPECT_EQ(field(status, "status")->as_string(), "ok");
}

TEST_F(ServeE2E, ClientDisconnectMidResponseDoesNotKillDaemon) {
  // A client that sends a request and slams the connection shut before
  // reading the response used to SIGPIPE the whole process. Run several:
  // one failed write must not take down the daemon or any worker.
  for (int i = 0; i < 4; ++i) {
    const int fd = util::net::connect_localhost(server->port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(util::net::send_all(fd, "{\"op\":\"status\"}\n"));
    ::close(fd);  // gone before the response is written
  }
  // Daemon must still answer. The slammed connections may still be
  // queued (max_queue backpressure legitimately answers "server busy"
  // while they drain), so retry until the queue clears — what must NOT
  // happen is the daemon dying or a worker wedging.
  bool answered = false;
  for (int attempt = 0; attempt < 50 && !answered; ++attempt) {
    serve::Client client;
    ASSERT_TRUE(client.connect(server->port()));
    obs::Json status;
    if (client.request(obs::Json::parse(R"({"op":"status"})"), &status) &&
        status.find("status") != nullptr &&
        status.find("status")->as_string() == "ok") {
      answered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(answered);
  EXPECT_TRUE(server->running());
}

TEST_F(ServeE2E, SilentClientIsClosedAndDoesNotStallWorkers) {
  // Connect and send nothing: the worker must give up after
  // idle_timeout_ms, not camp on ::recv forever.
  const int silent = util::net::connect_localhost(server->port());
  ASSERT_GE(silent, 0);
  // A real client must be served while the silent one idles.
  serve::Client client;
  ASSERT_TRUE(client.connect(server->port()));
  const obs::Json status = request(client, R"({"op":"status"})");
  EXPECT_EQ(field(status, "status")->as_string(), "ok");
  // After the idle timeout the silent connection is closed by the server
  // (read observes EOF).
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  char byte = 0;
  EXPECT_EQ(::read(silent, &byte, 1), 0);
  ::close(silent);
}

TEST_F(ServeE2E, ShutdownRequestStopsAccepting) {
  serve::Client client;
  ASSERT_TRUE(client.connect(server->port()));
  const obs::Json resp = request(client, R"({"op":"shutdown"})");
  EXPECT_EQ(field(resp, "status")->as_string(), "ok");
  EXPECT_TRUE(server->stop_requested());
  server->stop();
  EXPECT_FALSE(server->running());
}

TEST(ServeBackpressure, FullQueueRejectsWithOneErrorLine) {
  serve::ServerOptions options;
  options.port = 0;
  options.sessions = 1;
  options.max_queue = 0;  // reject whenever the only worker is busy
  options.idle_timeout_ms = 3000;
  serve::Server server(options);
  ASSERT_TRUE(server.start());

  // Occupy the single session worker with an open connection. A full
  // status round-trip (retried: with max_queue=0 even this connect is
  // rejected until the worker reaches its queue wait) proves the worker
  // owns the connection and is now camped on its next recv.
  serve::Client holder;
  bool held = false;
  for (int attempt = 0; attempt < 50 && !held; ++attempt) {
    ASSERT_TRUE(holder.connect(server.port()));
    obs::Json status;
    held = holder.request(obs::Json::parse(R"({"op":"status"})"), &status,
                          /*timeout_ms=*/2000) &&
           status.find("status") != nullptr &&
           status.find("status")->as_string() == "ok";
    if (!held) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(held);

  // The next client gets a clean one-line rejection, not a hang or an
  // unbounded queue.
  const int fd = util::net::connect_localhost(server.port());
  ASSERT_GE(fd, 0);
  std::string line;
  ASSERT_TRUE(util::net::recv_line(fd, &line, /*timeout_ms=*/3000));
  const obs::Json err = obs::Json::parse(line);
  ASSERT_NE(err.find("status"), nullptr);
  EXPECT_EQ(err.find("status")->as_string(), "error");
  ::close(fd);
  holder.close();
  const auto stats = server.stats();
  EXPECT_GE(stats.shed, 1u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Registry LRU eviction.
// ---------------------------------------------------------------------------

TEST(ServeRegistry, MaxEntriesLruEvictsAndWarmReloadsFromDisk) {
  const std::string dir = temp_dir("serve_registry_lru");
  serve::ModelRegistry registry(
      {dir, /*pool=*/nullptr, /*max_entries=*/1, /*max_mb=*/0});
  registry.get_or_train("ctrl", tiny_config());
  EXPECT_EQ(registry.size(), 1u);
  // A second circuit evicts the first from memory — but NOT from disk.
  registry.get_or_train("c17", tiny_config());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.evictions(), 1u);
  EXPECT_EQ(registry.keys().front().rfind("c17-", 0), 0u);
  // Re-requesting the evicted circuit warm-loads all three phases from
  // its surviving checkpoints instead of retraining.
  auto entry = registry.get_or_train("ctrl", tiny_config());
  EXPECT_EQ(entry->resumed_phases, 3);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.evictions(), 2u);  // and c17 is out in turn
}

TEST(ServeRegistry, MaxMbEvictsStaleDiskEntriesButProtectsJustTrained) {
  const std::string dir = temp_dir("serve_registry_disk_budget");
  // A 2 MiB entry directory "left by an earlier daemon run" — never
  // touched this process, so it is the LRU victim.
  std::filesystem::create_directories(dir + "/stale-key");
  {
    std::ofstream f(dir + "/stale-key/blob", std::ios::binary);
    const std::vector<char> junk(2 * 1024 * 1024, 'x');
    f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  serve::ModelRegistry registry(
      {dir, /*pool=*/nullptr, /*max_entries=*/0, /*max_mb=*/1});
  registry.get_or_train("ctrl", tiny_config());
  EXPECT_FALSE(std::filesystem::exists(dir + "/stale-key"));
  EXPECT_GE(registry.evictions(), 1u);
  // The just-trained entry's directory must survive its own eviction pass.
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + registry.keys().front()));
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines.
// ---------------------------------------------------------------------------

/// Poll the daemon until `pred(status)` holds (or ~2 s passes).
template <typename Pred>
bool wait_for_status(int port, Pred pred) {
  for (int i = 0; i < 400; ++i) {
    serve::Client client;
    obs::Json status;
    if (client.connect(port) &&
        client.request(obs::Json::parse(R"({"op":"status"})"), &status) &&
        pred(status)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(ServeCancel, CancelMidTrainLeavesNoPartialEntryAndRetrainMatchesCold) {
  serve::ServerOptions options;
  options.port = 0;
  options.sessions = 2;
  options.threads = 2;
  serve::Server server(options);
  ASSERT_TRUE(server.start());
  const std::string tune_line =
      R"({"op":"tune","id":"victim","circuit":"ctrl","dataset":16,)"
      R"("restarts":1})";

  // Client A starts a cold tune; the cancel lands while it pretrains.
  obs::Json victim_response;
  std::thread victim([&] {
    serve::Client client;
    ASSERT_TRUE(client.connect(server.port()));
    ASSERT_TRUE(
        client.request(obs::Json::parse(tune_line), &victim_response,
                       /*timeout_ms=*/120000));
  });
  ASSERT_TRUE(wait_for_status(server.port(), [](const obs::Json& s) {
    const obs::Json* inflight = s.find("inflight");
    return inflight != nullptr && inflight->as_double() >= 1.0;
  }));
  serve::Client canceller;
  ASSERT_TRUE(canceller.connect(server.port()));
  obs::Json cancel_response;
  ASSERT_TRUE(canceller.request(
      obs::Json::parse(R"({"op":"cancel","target":"victim"})"),
      &cancel_response));
  ASSERT_NE(cancel_response.find("status"), nullptr);
  EXPECT_EQ(cancel_response.find("status")->as_string(), "ok");
  ASSERT_NE(cancel_response.find("cancelled"), nullptr);
  EXPECT_EQ(cancel_response.find("cancelled")->as_double(), 1.0);
  victim.join();

  // The victim saw a clean, machine-readable cancellation...
  ASSERT_NE(victim_response.find("status"), nullptr);
  ASSERT_EQ(victim_response.find("status")->as_string(), "error")
      << victim_response.dump();
  ASSERT_NE(victim_response.find("code"), nullptr);
  EXPECT_EQ(victim_response.find("code")->as_string(), "cancelled");
  // ...and the registry holds NO partial entry.
  EXPECT_EQ(server.registry().size(), 0u);
  obs::Json status;
  {
    serve::Client client;
    ASSERT_TRUE(client.connect(server.port()));
    ASSERT_TRUE(
        client.request(obs::Json::parse(R"({"op":"status"})"), &status));
  }
  EXPECT_GE(status.find("cancelled")->as_double(), 1.0);

  // Cancelling a request that no longer exists matches nothing — ok, 0.
  obs::Json noop;
  ASSERT_TRUE(canceller.request(
      obs::Json::parse(R"({"op":"cancel","circuit":"ctrl"})"), &noop));
  EXPECT_EQ(noop.find("cancelled")->as_double(), 0.0);

  // Re-issuing the identical tune trains from scratch and is
  // byte-identical to a cold CLI-style pipeline run: the cancelled train
  // left no state that could perturb determinism.
  serve::Client retry;
  ASSERT_TRUE(retry.connect(server.port()));
  obs::Json redo;
  ASSERT_TRUE(retry.request(obs::Json::parse(tune_line), &redo,
                            /*timeout_ms=*/120000));
  ASSERT_NE(redo.find("status"), nullptr);
  ASSERT_EQ(redo.find("status")->as_string(), "ok") << redo.dump();

  const auto config = serve::pipeline_config(serve::parse_request(tune_line));
  core::QorEvaluator evaluator(circuits::make_benchmark("ctrl"));
  core::CloPipeline pipeline(config);
  const auto reference = pipeline.run(evaluator);
  EXPECT_EQ(redo.find("best_sequence")->as_string(),
            opt::sequence_to_string(reference.best_sequence));
  server.stop();
}

TEST(ServeCancel, DeadlineExceededIsPromptAndLeavesDaemonHealthy) {
  serve::ServerOptions options;
  options.port = 0;
  options.sessions = 2;
  serve::Server server(options);
  ASSERT_TRUE(server.start());

  // A tune that would take seconds, budgeted at 100 ms: the response must
  // arrive within one cancellation-poll step of the deadline (the <500 ms
  // promptness contract), carrying the deadline_exceeded code.
  serve::Client client;
  ASSERT_TRUE(client.connect(server.port()));
  const auto start = std::chrono::steady_clock::now();
  obs::Json response;
  ASSERT_TRUE(client.request(
      obs::Json::parse(R"({"op":"tune","circuit":"ctrl","dataset":64,)"
                       R"("restarts":2,"deadline_ms":100})"),
      &response, /*timeout_ms=*/120000));
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_NE(response.find("status"), nullptr);
  ASSERT_EQ(response.find("status")->as_string(), "error")
      << response.dump();
  ASSERT_NE(response.find("code"), nullptr);
  EXPECT_EQ(response.find("code")->as_string(), "deadline_exceeded");
  EXPECT_LT(elapsed_ms, 100 + 500) << "cancellation was not prompt";
  // No partial entry; the daemon keeps serving.
  EXPECT_EQ(server.registry().size(), 0u);
  obs::Json status;
  ASSERT_TRUE(
      client.request(obs::Json::parse(R"({"op":"status"})"), &status));
  EXPECT_EQ(status.find("status")->as_string(), "ok");
  EXPECT_GE(status.find("deadline_exceeded")->as_double(), 1.0);
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Client retry/backoff and end-to-end timeouts.
// ---------------------------------------------------------------------------

TEST(ServeRetry, BackoffIsDeterministicBoundedAndGrows) {
  serve::RetryPolicy policy;
  policy.base_backoff_ms = 50;
  policy.max_backoff_ms = 400;
  policy.jitter_seed = 7;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const int a = serve::retry_backoff_ms(policy, attempt);
    const int b = serve::retry_backoff_ms(policy, attempt);
    EXPECT_EQ(a, b) << "jitter must be deterministic";
    // Jitter keeps every delay in [raw/2, raw] with raw capped at max.
    EXPECT_GE(a, 25);
    EXPECT_LE(a, 400);
  }
  // Different seeds decorrelate (not all identical across attempts).
  int differs = 0;
  for (int attempt = 0; attempt < 6; ++attempt) {
    serve::RetryPolicy other = policy;
    other.jitter_seed = 8;
    if (serve::retry_backoff_ms(other, attempt) !=
        serve::retry_backoff_ms(policy, attempt)) {
      ++differs;
    }
  }
  EXPECT_GE(differs, 1);
}

TEST(ServeRetry, QueryWithRetryRidesOutBusy) {
  serve::ServerOptions options;
  options.port = 0;
  options.sessions = 1;
  options.max_queue = 0;  // shed whenever the only worker is busy
  options.idle_timeout_ms = 5000;
  serve::Server server(options);
  ASSERT_TRUE(server.start());

  // Occupy the single worker (same discipline as the backpressure test).
  serve::Client holder;
  bool held = false;
  for (int attempt = 0; attempt < 50 && !held; ++attempt) {
    ASSERT_TRUE(holder.connect(server.port()));
    obs::Json status;
    held = holder.request(obs::Json::parse(R"({"op":"status"})"), &status,
                          /*timeout_ms=*/2000) &&
           status.find("status") != nullptr &&
           status.find("status")->as_string() == "ok";
    if (!held) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(held);

  // Release the worker after ~300 ms; a retrying client must ride the
  // "busy" responses out and land once capacity frees up.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    holder.close();
  });
  serve::RetryPolicy policy;
  policy.retries = 30;
  policy.base_backoff_ms = 25;
  policy.max_backoff_ms = 100;
  obs::Json response;
  int attempts = 0;
  ASSERT_TRUE(serve::query_with_retry(
      server.port(), obs::Json::parse(R"({"op":"status"})"), &response,
      policy, /*timeout_ms=*/5000, &attempts));
  releaser.join();
  ASSERT_NE(response.find("status"), nullptr);
  EXPECT_EQ(response.find("status")->as_string(), "ok") << response.dump();
  EXPECT_GT(attempts, 1) << "the first attempt should have been shed";
  EXPECT_GE(server.stats().shed, 1u);
  server.stop();
}

TEST(ServeClient, RequestLineTimeoutIsEndToEndWallClock) {
  // A hostile "server" that drips one byte every 50 ms and never sends a
  // newline. With a per-read timeout (the old bug) every byte would reset
  // the clock and the call would hang for the duration of the drip; the
  // end-to-end budget must bound the whole call.
  int port = 0;
  const int listener = util::net::listen_localhost(0, 4, &port);
  ASSERT_GE(listener, 0);
  std::atomic<bool> stop{false};
  std::thread dripper([&] {
    if (!util::net::wait_readable(listener, 5000)) return;
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string junk;
    util::net::recv_line(fd, &junk, 1000);  // swallow the request
    for (int i = 0; i < 60 && !stop.load(); ++i) {
      if (!util::net::send_all(fd, "x")) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::close(fd);
  });

  serve::Client client;
  ASSERT_TRUE(client.connect(port));
  std::string response;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.request_line(R"({"op":"status"})", &response,
                                   /*timeout_ms=*/500));
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 400) << "gave up before the budget was spent";
  EXPECT_LT(elapsed_ms, 2500) << "per-read timeout reset the clock";
  stop.store(true);
  dripper.join();
  ::close(listener);
}

TEST(ServeClient, RecvLineJoinsChunksAndKeepsTightCapacity) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string line;
  // A line longer than one 4 KB read arrives whole.
  const std::string long_line(10000, 'a');
  ASSERT_TRUE(util::net::send_all(fds[1], long_line + "\n"));
  ASSERT_TRUE(util::net::recv_line(fds[0], &line, 3000));
  EXPECT_EQ(line, long_line);
  // A kept line holds about its own size, not a doubled buffer.
  const std::string response(241, 'r');
  ASSERT_TRUE(util::net::send_all(fds[1], response + "\n"));
  std::string kept;
  ASSERT_TRUE(util::net::recv_line(fds[0], &kept, 3000));
  EXPECT_EQ(kept, response);
  EXPECT_LT(kept.capacity(), 300u);
  // The cap admits a line of exactly max_len and rejects one byte more.
  ASSERT_TRUE(util::net::send_all(fds[1], std::string(8, 'b') + "\n"));
  EXPECT_TRUE(util::net::recv_line(fds[0], &line, 3000, /*max_len=*/8));
  EXPECT_EQ(line, std::string(8, 'b'));
  ASSERT_TRUE(util::net::send_all(fds[1], std::string(9, 'c') + "\n"));
  EXPECT_FALSE(util::net::recv_line(fds[0], &line, 3000, /*max_len=*/8));
  ::close(fds[0]);
  ::close(fds[1]);
}


}  // namespace
