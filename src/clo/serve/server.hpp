#pragma once
// The `clo serve` daemon: a localhost TCP listener speaking clo.serve.v1
// (one JSON object per line), a bounded queue of accepted connections, and
// a small crew of session workers that multiplex tune/QoR requests onto a
// single shared ThreadPool through the persistent ModelRegistry.
//
// Failure discipline (the bugs this server exists to not have):
//   * every socket write goes through net::send_all (MSG_NOSIGNAL) and
//     SIGPIPE is ignored process-wide — a client that disconnects
//     mid-response costs one closed fd, never the process;
//   * every socket read polls with a timeout — a silent client is closed
//     after idle_timeout_ms and cannot stall a worker forever;
//   * when the session queue is full, new connections get one line of
//     backpressure JSON (code "busy") and a clean close — never an
//     unbounded queue;
//   * every tune/qor carries a CancelToken registered in an in-flight
//     table. A request's own deadline_ms, a client `cancel` op, or the
//     watchdog thread fires the token; the pipeline polls it at phase /
//     batch / timestep granularity and unwinds with a clean error line,
//     handing the session worker back — one runaway pretrain can no
//     longer occupy a worker forever.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "clo/serve/protocol.hpp"
#include "clo/serve/registry.hpp"
#include "clo/util/cancel.hpp"
#include "clo/util/thread_pool.hpp"
#include "clo/util/timer.hpp"

namespace clo::serve {

struct ServerOptions {
  /// Listen port; 0 = ephemeral (read the bound port from port()).
  int port = 0;
  /// Model registry persistence root; empty = in-memory only.
  std::string registry_dir;
  /// Maximum accepted-but-unserved connections; beyond this new clients
  /// are rejected with a "server busy" error line. 0 rejects whenever all
  /// session workers are occupied.
  int max_queue = 32;
  /// Concurrent session workers (each owns one client connection at a
  /// time; pipelines inside them share the worker pool).
  int sessions = 2;
  /// Worker threads in the shared pipeline pool: 1 = serial, 0 = hardware
  /// concurrency. Not part of the registry key: every phase gives the same
  /// bits at any thread count, so a model trained at one count serves
  /// queries at any other.
  int threads = 0;
  /// Idle limit for client reads; a connection with no complete request
  /// line for this long is closed.
  int idle_timeout_ms = 5000;
  /// Registry LRU budgets, forwarded to ModelRegistry::Options: maximum
  /// in-memory entries and maximum registry-directory size in MiB
  /// (0 = unlimited).
  std::size_t registry_max_entries = 0;
  std::size_t registry_max_mb = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the listener and start the accept thread + session workers.
  /// Returns false (with a log line) when the port cannot be bound.
  bool start();

  /// Block until a shutdown request arrives (or stop() is called from
  /// another thread). Does not tear down — call stop() after.
  void wait();

  /// Stop accepting, drain workers, close the listener. Idempotent; safe
  /// after wait() or standalone.
  void stop();

  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// True once a shutdown request has arrived (wait() has unblocked or is
  /// about to) — pollable by owners that cannot block in wait(), e.g. a
  /// main() that also watches for SIGINT.
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  ModelRegistry& registry() { return *registry_; }
  util::ThreadPool* pool() { return pool_.get(); }

  struct Stats {
    std::uint64_t accepted = 0;  ///< connections handed to a worker
    std::uint64_t served = 0;    ///< requests answered (ok or error)
    std::uint64_t shed = 0;      ///< connections refused by backpressure
    std::uint64_t cancelled = 0;          ///< requests stopped by cancel op
    std::uint64_t deadline_exceeded = 0;  ///< requests past deadline_ms
    std::size_t queue_depth = 0;
    std::size_t inflight = 0;  ///< tune/qor requests currently executing
    double uptime_s = 0.0;
  };
  Stats stats() const;

 private:
  /// One executing tune/qor, addressable by the cancel op (via the
  /// client-chosen id tag or the circuit name) and watched by the
  /// watchdog. The CancelToken is a shared handle: firing it here is seen
  /// by every pipeline check downstream.
  struct Inflight {
    std::string id;       ///< client tag ("" = not addressable by target)
    std::string circuit;  ///< benchmark name (tune/qor)
    util::CancelToken token;
    bool deadline_logged = false;  ///< watchdog warns once per request
  };

  void accept_loop();
  void session_loop();
  /// Cancels over-deadline in-flight requests every ~100 ms. Enforcement
  /// is cooperative (the pipeline polls the token), but the watchdog makes
  /// it independent of which phase the work is in and logs the expiry.
  void watchdog_loop();
  /// Serve one client connection until EOF/idle/shutdown; closes the fd.
  void handle_connection(int fd);
  /// One request line -> one response line. Returns false when the
  /// connection should close (shutdown op or write failure).
  bool handle_line(int fd, const std::string& line);

  obs::Json do_tune(const Request& req, const util::CancelToken* cancel);
  obs::Json do_qor(const Request& req, const util::CancelToken* cancel);
  obs::Json do_cancel(const Request& req);
  obs::Json do_status(const Request& req);

  /// Register/unregister one executing request in the in-flight table.
  std::uint64_t inflight_add(const Request& req,
                             const util::CancelToken& token);
  void inflight_remove(std::uint64_t slot);

  ServerOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<ModelRegistry> registry_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< accepted fds awaiting a session worker
  int idle_workers_ = 0;     ///< guarded by queue_mu_; part of capacity

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  mutable std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;

  std::thread watchdog_thread_;
  mutable std::mutex inflight_mu_;
  std::map<std::uint64_t, Inflight> inflight_;  ///< slot -> request
  std::uint64_t inflight_seq_ = 0;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> next_request_{0};
  Stopwatch uptime_;
};

}  // namespace clo::serve
