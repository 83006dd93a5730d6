#pragma once
// Fixed-size worker pool with exception-propagating futures and
// deterministic parallel_for / parallel_map helpers — the one level of
// parallelism in the system: QoR labeling, latent optimization restarts,
// validation, and baseline candidate evaluation. Work inside one item
// (a synthesis run, an nn forward/backward) runs serially on its worker.
//
// Determinism contract: parallel_for(pool, n, fn) runs fn(0..n-1) with
// results keyed by index, so any code whose per-item work is a pure
// function of (shared inputs, index) produces bit-identical output at any
// worker count — including the serial pool == nullptr path. Randomized
// per-item work stays deterministic by forking one child Rng per item
// *before* the parallel region (see Rng::fork).
//
// Nested submission: tasks submitted from inside a worker thread run
// inline (same thread, immediately). This keeps nested parallel_for calls
// deadlock-free without work stealing; the inner loop simply degrades to
// serial execution.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <string>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace clo::util {

class ThreadPool {
 public:
  /// `workers == 0` asks for std::thread::hardware_concurrency() (at least
  /// one). A one-worker pool still runs tasks on its single worker thread;
  /// use a null pool pointer with the free helpers for true inline
  /// execution.
  explicit ThreadPool(std::size_t workers = 0);
  /// Drains before joining: tasks already queued but not yet started are
  /// still executed (their futures become ready), so submitting work and
  /// immediately destroying the pool never silently drops tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Schedule `fn` and return a future for its result. Exceptions thrown
  /// by `fn` are captured and rethrown from future::get(). Called from a
  /// worker thread of this pool, the task runs inline (see header note).
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    if (on_worker_thread()) {
      (*task)();
      return result;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// True when the calling thread is one of this pool's workers.
  static bool on_worker_thread();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Resolve a --threads style request: n >= 1 is taken literally, n <= 0
/// means hardware concurrency.
std::size_t resolve_threads(int n);

/// Run fn(i) for i in [0, n). With a null pool (or n < 2) the loop runs
/// serially on the calling thread; otherwise items are distributed over
/// the workers via an atomic cursor. Blocks until every item completed.
/// The first exception thrown by any item is rethrown on the caller.
///
/// Error semantics — silent abandonment: once any item throws, workers
/// stop pulling new indices, so items after the failure MAY NEVER RUN
/// (which ones depends on scheduling). On a throw the caller must treat
/// every per-index output as unspecified — in particular, parallel_map
/// results must not be consumed when it throws. Use parallel_for_collect
/// when every item must be attempted and failures handled per index.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool == nullptr || pool->size() < 2 || n < 2 ||
      ThreadPool::on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  auto first_error = std::make_shared<std::atomic<bool>>(false);
  auto error_mu = std::make_shared<std::mutex>();
  auto error = std::make_shared<std::exception_ptr>();
  const std::size_t tasks = std::min(pool->size(), n);
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    futures.push_back(pool->submit([&fn, n, cursor, first_error, error_mu,
                                    error] {
      for (;;) {
        const std::size_t i = cursor->fetch_add(1);
        if (i >= n) return;
        if (first_error->load(std::memory_order_relaxed)) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(*error_mu);
          if (!*error) *error = std::current_exception();
          first_error->store(true, std::memory_order_relaxed);
          return;
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  if (*error) std::rethrow_exception(*error);
}

/// parallel_for that materializes results: out[i] = fn(i), in index order
/// regardless of scheduling. Inherits parallel_for's abandonment
/// semantics: when it throws, the would-be results are lost — never
/// consume partial output.
template <typename R, typename Fn>
std::vector<R> parallel_map(ThreadPool* pool, std::size_t n, Fn&& fn) {
  std::vector<R> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// One failed item of a parallel_for_collect.
struct ItemError {
  std::size_t index = 0;
  std::exception_ptr error;
  std::string message;  ///< what() when the exception derives from std::exception
};

/// Fault-tolerant parallel_for: EVERY item in [0, n) is attempted even
/// after failures, and each failure is gathered instead of aborting the
/// loop. Returns the failures sorted by index (empty = all succeeded);
/// outputs of failed indices are unspecified, outputs of succeeded ones
/// are valid. This is the graceful-degradation primitive the pipeline's
/// optimize/validate phases use to quarantine individual restarts.
template <typename Fn>
std::vector<ItemError> parallel_for_collect(ThreadPool* pool, std::size_t n,
                                            Fn&& fn) {
  auto describe = [](std::exception_ptr ep) {
    try {
      std::rethrow_exception(ep);
    } catch (const std::exception& e) {
      return std::string(e.what());
    } catch (...) {
      return std::string("unknown exception");
    }
  };
  std::vector<ItemError> errors;
  if (pool == nullptr || pool->size() < 2 || n < 2 ||
      ThreadPool::on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        auto ep = std::current_exception();
        errors.push_back({i, ep, describe(ep)});
      }
    }
    return errors;
  }
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  auto error_mu = std::make_shared<std::mutex>();
  auto shared_errors = std::make_shared<std::vector<ItemError>>();
  const std::size_t tasks = std::min(pool->size(), n);
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    futures.push_back(
        pool->submit([&fn, &describe, n, cursor, error_mu, shared_errors] {
          for (;;) {
            const std::size_t i = cursor->fetch_add(1);
            if (i >= n) return;
            try {
              fn(i);
            } catch (...) {
              auto ep = std::current_exception();
              std::lock_guard<std::mutex> lock(*error_mu);
              shared_errors->push_back({i, ep, describe(ep)});
            }
          }
        }));
  }
  for (auto& f : futures) f.get();
  errors = std::move(*shared_errors);
  std::sort(errors.begin(), errors.end(),
            [](const ItemError& a, const ItemError& b) {
              return a.index < b.index;
            });
  return errors;
}

}  // namespace clo::util
