#include "clo/serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <exception>
#include <utility>

#include "clo/opt/transform.hpp"
#include "clo/util/log.hpp"
#include "clo/util/net.hpp"
#include "clo/util/obs.hpp"

namespace clo::serve {

namespace {

/// How often blocked loops re-check the stop flag.
constexpr int kPollMs = 200;
/// How often the watchdog scans the in-flight table for expired deadlines.
constexpr int kWatchdogMs = 100;

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  const std::size_t workers = util::resolve_threads(options_.threads);
  if (workers >= 2) pool_ = std::make_unique<util::ThreadPool>(workers);
  ModelRegistry::Options reg;
  reg.dir = options_.registry_dir;
  reg.pool = pool_.get();
  reg.max_entries = options_.registry_max_entries;
  reg.max_mb = options_.registry_max_mb;
  registry_ = std::make_unique<ModelRegistry>(reg);
  if (options_.sessions < 1) options_.sessions = 1;
  if (options_.max_queue < 0) options_.max_queue = 0;
  if (options_.idle_timeout_ms <= 0) options_.idle_timeout_ms = 5000;
}

Server::~Server() { stop(); }

bool Server::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  util::net::ignore_sigpipe();
  listen_fd_ = util::net::listen_localhost(options_.port, 16, &port_);
  if (listen_fd_ < 0) {
    CLO_LOG_ERROR << "serve: cannot bind 127.0.0.1:" << options_.port;
    return false;
  }
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  uptime_.reset();
  uptime_.start();
  accept_thread_ = std::thread([this] { accept_loop(); });
  watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  workers_.reserve(static_cast<std::size_t>(options_.sessions));
  for (int i = 0; i < options_.sessions; ++i) {
    workers_.emplace_back([this] { session_loop(); });
  }
  CLO_LOG_INFO << "serve: listening on 127.0.0.1:" << port_ << " ("
               << options_.sessions << " session(s), pool="
               << (pool_ ? pool_->size() : 1) << ", max_queue="
               << options_.max_queue << ")";
  return true;
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] {
    return stop_requested_.load(std::memory_order_acquire);
  });
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_requested_.store(true, std::memory_order_release);
  shutdown_cv_.notify_all();
  queue_cv_.notify_all();
  // Fire every in-flight token so workers blocked inside a pipeline
  // unwind within one cancellation-poll step instead of finishing
  // (possibly minutes of) doomed work.
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (auto& [slot, entry] : inflight_) entry.token.cancel();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Reject-and-close anything still queued (workers are gone).
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (int fd : pending_) {
      util::net::send_all(
          fd, error_response("server shutting down", nullptr).dump() + "\n");
      ::close(fd);
    }
    pending_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  uptime_.stop();
  CLO_LOG_INFO << "serve: stopped (served "
               << served_.load(std::memory_order_relaxed) << " request(s))";
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.queue_depth = pending_.size();
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    s.inflight = inflight_.size();
  }
  s.uptime_s = uptime_.seconds();
  return s;
}

void Server::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    if (!util::net::wait_readable(listen_fd_, kPollMs)) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    bool reject = false;
    {
      // Capacity = max_queue waiting connections on top of however many
      // workers are idle right now; max_queue == 0 therefore rejects
      // exactly when every session worker is occupied.
      std::lock_guard<std::mutex> lock(queue_mu_);
      const std::size_t capacity =
          static_cast<std::size_t>(options_.max_queue) +
          static_cast<std::size_t>(idle_workers_);
      if (pending_.size() >= capacity) {
        reject = true;
      } else {
        pending_.push_back(client);
      }
    }
    if (reject) {
      // Load shedding, not OOM: one line of JSON with code "busy" (the
      // one code clients are allowed to retry on), then a clean close.
      shed_.fetch_add(1, std::memory_order_relaxed);
      CLO_OBS_COUNT("serve.shed", 1);
      util::net::send_all(
          client,
          error_response("server busy (queue full, retry later)", nullptr,
                         "busy")
                  .dump() +
              "\n");
      ::close(client);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    CLO_OBS_COUNT("serve.accepted", 1);
    queue_cv_.notify_one();
  }
}

void Server::session_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      ++idle_workers_;
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() ||
               !running_.load(std::memory_order_acquire);
      });
      --idle_workers_;
      if (pending_.empty()) return;  // shutting down
      fd = pending_.front();
      pending_.pop_front();
    }
    handle_connection(fd);
  }
}

void Server::handle_connection(int fd) {
  std::string line;
  while (running_.load(std::memory_order_acquire)) {
    if (!util::net::recv_line(fd, &line, options_.idle_timeout_ms)) {
      break;  // EOF, idle timeout, or oversized line: close quietly
    }
    if (line.empty()) continue;
    if (!handle_line(fd, line)) break;
  }
  ::close(fd);
}

bool Server::handle_line(int fd, const std::string& line) {
  const std::string req_id =
      run_id() + "-" + std::to_string(next_request_.fetch_add(
                           1, std::memory_order_relaxed));
  obs::Json response;
  bool keep_open = true;
  Request req;
  bool parsed = false;
  try {
    req = parse_request(line);
    parsed = true;
  } catch (const std::exception& e) {
    response = error_response(e.what(), nullptr, "bad_request");
  }
  if (parsed) {
    // tune/qor run under a fresh CancelToken: armed with the request's
    // deadline_ms, registered in the in-flight table (so `cancel` ops and
    // the watchdog can fire it), unregistered on every exit path.
    const bool tracked =
        req.op == Request::Op::kTune || req.op == Request::Op::kQor;
    util::CancelToken token;
    std::uint64_t slot = 0;
    if (tracked) {
      if (req.deadline_ms > 0) token.set_deadline_ms(req.deadline_ms);
      slot = inflight_add(req, token);
    }
    try {
      switch (req.op) {
        case Request::Op::kTune:
          response = do_tune(req, &token);
          break;
        case Request::Op::kQor:
          response = do_qor(req, &token);
          break;
        case Request::Op::kStatus:
          response = do_status(req);
          break;
        case Request::Op::kCancel:
          response = do_cancel(req);
          break;
        case Request::Op::kShutdown:
          response = ok_response(&req);
          response["shutting_down"] = true;
          keep_open = false;
          stop_requested_.store(true, std::memory_order_release);
          shutdown_cv_.notify_all();
          break;
      }
    } catch (const util::CancelledError& e) {
      // Cancelled work unwound cleanly: the registry holds no partial
      // entry and the worker is free again. Tell the client which kind.
      const bool deadline = e.reason() == util::CancelReason::kDeadline;
      if (deadline) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        CLO_OBS_COUNT("serve.deadline_exceeded", 1);
      } else {
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        CLO_OBS_COUNT("serve.cancelled", 1);
      }
      response = error_response(e.what(), &req,
                                deadline ? "deadline_exceeded" : "cancelled");
    } catch (const std::exception& e) {
      // A bad circuit name or a failed pipeline is the request's problem,
      // never the daemon's: report and keep serving.
      response = error_response(e.what(), &req);
    }
    if (tracked) inflight_remove(slot);
  }
  response["req"] = req_id;
  served_.fetch_add(1, std::memory_order_relaxed);
  CLO_OBS_COUNT("serve.served", 1);
  if (!util::net::send_all(fd, response.dump() + "\n")) {
    // Peer went away mid-response; MSG_NOSIGNAL turned the would-be
    // SIGPIPE into this false return. Close and move on.
    CLO_LOG_DEBUG << "serve: client disconnected mid-response";
    return false;
  }
  return keep_open;
}

namespace {

/// The Entry single-flight protocol for optimize(): exactly one session
/// runs it at a time (flagged by `optimizing`); everyone else does timed
/// cv waits polling their own token, so a waiter's deadline or cancel
/// fires promptly without disturbing the runner. Results are cached per
/// (restarts, verify) — the request's values, which the registry key
/// leaves out — so each pair runs optimize() once. Throwing (cancellation
/// included) clears the flag and wakes a waiter to take over; only a
/// completed optimize() is ever cached.
core::PipelineResult optimize_once(ModelRegistry::Entry& entry,
                                   const Request& req,
                                   const util::CancelToken* cancel,
                                   bool* warm) {
  const std::pair<int, bool> key{req.restarts, req.verify};
  std::unique_lock<std::mutex> lock(entry.mu);
  for (;;) {
    const auto it = entry.results.find(key);
    if (it != entry.results.end()) {
      if (warm != nullptr) *warm = true;
      return it->second;
    }
    if (!entry.optimizing) break;
    if (cancel != nullptr) {
      cancel->check();
      entry.cv.wait_for(lock, std::chrono::milliseconds(50));
    } else {
      entry.cv.wait(lock);
    }
  }
  if (warm != nullptr) *warm = false;
  entry.optimizing = true;
  lock.unlock();
  core::PipelineResult result;
  try {
    // Deterministic from the pretrain boundary: this run is
    // byte-identical to a cold CLI `tune` of the same circuit/config.
    result = entry.pipeline.optimize(entry.evaluator, req.restarts, req.verify,
                                     cancel);
  } catch (...) {
    lock.lock();
    entry.optimizing = false;
    entry.cv.notify_all();
    throw;
  }
  lock.lock();
  entry.results.emplace(key, result);
  entry.optimizing = false;
  entry.cv.notify_all();
  return result;
}

}  // namespace

obs::Json Server::do_tune(const Request& req,
                          const util::CancelToken* cancel) {
  auto entry =
      registry_->get_or_train(req.circuit, pipeline_config(req), cancel);
  bool warm = true;
  const core::PipelineResult result = optimize_once(*entry, req, cancel, &warm);
  obs::Json r = ok_response(&req);
  r["circuit"] = req.circuit;
  r["warm"] = warm;
  r["best_sequence"] = opt::sequence_to_string(result.best_sequence);
  r["best_area_um2"] = result.best.area_um2;
  r["best_delay_ps"] = result.best.delay_ps;
  r["original_area_um2"] = result.original.area_um2;
  r["original_delay_ps"] = result.original.delay_ps;
  r["train_seconds"] = entry->pretrain_seconds;
  r["optimize_seconds"] = result.optimize_seconds;
  r["resumed_phases"] = entry->resumed_phases;
  if (!result.verify_verdict.empty()) {
    r["verify_verdict"] = result.verify_verdict;
  }
  if (req.want_report) {
    r["report"] = core::pipeline_report(result, entry->evaluator.snapshot());
  }
  return r;
}

obs::Json Server::do_qor(const Request& req,
                         const util::CancelToken* cancel) {
  auto entry =
      registry_->get_or_train(req.circuit, pipeline_config(req), cancel);
  opt::Sequence seq;
  if (!req.sequence.empty()) {
    seq = opt::parse_sequence(req.sequence);
  } else {
    // Empty sequence = "the registry's best for this circuit": run the
    // optimization for the request's (restarts, verify) if nobody has yet.
    seq = optimize_once(*entry, req, cancel, nullptr).best_sequence;
  }
  const core::Qor qor = entry->evaluator.evaluate(seq, cancel);
  const core::EvaluatorStats stats = entry->evaluator.snapshot();
  obs::Json r = ok_response(&req);
  r["circuit"] = req.circuit;
  r["sequence"] = opt::sequence_to_string(seq);
  r["area_um2"] = qor.area_um2;
  r["delay_ps"] = qor.delay_ps;
  obs::Json ev = obs::Json::object();
  ev["queries"] = static_cast<double>(stats.queries);
  ev["unique_runs"] = static_cast<double>(stats.unique_runs);
  ev["cache_hits"] = static_cast<double>(stats.cache_hits);
  r["evaluator"] = std::move(ev);
  return r;
}

obs::Json Server::do_cancel(const Request& req) {
  // Fire the token of every in-flight request matching the target id (or,
  // without a target, every request on the named circuit). The work
  // unwinds at its next cancellation poll; the match count tells the
  // client how many requests were signalled (0 = nothing matched, e.g.
  // the request already finished — not an error).
  int matched = 0;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (auto& [slot, entry] : inflight_) {
      const bool by_id = !req.target.empty() && entry.id == req.target;
      const bool by_circuit =
          req.target.empty() && entry.circuit == req.circuit;
      if (by_id || by_circuit) {
        entry.token.cancel();
        ++matched;
      }
    }
  }
  CLO_OBS_COUNT("serve.cancel_ops", 1);
  CLO_LOG_INFO << "serve: cancel "
               << (req.target.empty() ? "circuit '" + req.circuit + "'"
                                      : "target '" + req.target + "'")
               << " signalled " << matched << " request(s)";
  obs::Json r = ok_response(&req);
  r["cancelled"] = static_cast<double>(matched);
  return r;
}

obs::Json Server::do_status(const Request& req) {
  const Stats s = stats();
  obs::Json r = ok_response(&req);
  obs::Json circuits = obs::Json::array();
  for (const auto& key : registry_->keys()) circuits.push_back(obs::Json(key));
  r["circuits"] = std::move(circuits);
  r["trainings"] = static_cast<double>(registry_->trainings());
  r["accepted"] = static_cast<double>(s.accepted);
  r["served"] = static_cast<double>(s.served);
  // "rejected" is the clo.serve.v1 name for shed connections; "shed" is
  // the same counter under the overload-hardening vocabulary.
  r["rejected"] = static_cast<double>(s.shed);
  r["shed"] = static_cast<double>(s.shed);
  r["cancelled"] = static_cast<double>(s.cancelled);
  r["deadline_exceeded"] = static_cast<double>(s.deadline_exceeded);
  r["evictions"] = static_cast<double>(registry_->evictions());
  r["queue_depth"] = static_cast<double>(s.queue_depth);
  r["inflight"] = static_cast<double>(s.inflight);
  r["uptime_s"] = s.uptime_s;
  return r;
}

std::uint64_t Server::inflight_add(const Request& req,
                                   const util::CancelToken& token) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  const std::uint64_t slot = ++inflight_seq_;
  Inflight entry;
  entry.id = req.id;
  entry.circuit = req.circuit;
  entry.token = token;
  inflight_.emplace(slot, std::move(entry));
  CLO_OBS_GAUGE("serve.inflight", static_cast<double>(inflight_.size()));
  return slot;
}

void Server::inflight_remove(std::uint64_t slot) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_.erase(slot);
  CLO_OBS_GAUGE("serve.inflight", static_cast<double>(inflight_.size()));
}

void Server::watchdog_loop() {
  while (running_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      for (auto& [slot, entry] : inflight_) {
        if (entry.deadline_logged || !entry.token.has_deadline()) continue;
        // cancelled() latches kDeadline on an expired token, so this scan
        // IS the enforcement — it fires the token even when the worker is
        // between polls, and the worker's next check() unwinds the work.
        if (entry.token.cancelled()) {
          entry.deadline_logged = true;
          CLO_LOG_WARN << "serve: request "
                       << (entry.id.empty() ? "on circuit '" + entry.circuit +
                                                  "'"
                                            : "'" + entry.id + "'")
                       << " exceeded its deadline; cancelling";
        }
      }
    }
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_cv_.wait_for(lock, std::chrono::milliseconds(kWatchdogMs),
                          [this] {
                            return !running_.load(std::memory_order_acquire);
                          });
  }
}

}  // namespace clo::serve
