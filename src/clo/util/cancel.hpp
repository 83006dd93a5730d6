#pragma once
// Cooperative cancellation with deadlines. A CancelToken is a copyable
// handle over shared state that long-running work polls at natural
// boundaries (pipeline phases, training batches, optimizer timesteps,
// synthesis calls). Cancellation is cooperative and prompt-by-contract:
// every loop that can run longer than a checkpoint-granularity step must
// call check() (or cancel_point() when only the thread-local ambient token
// is reachable), so an expired deadline or an explicit cancel() surfaces
// within one step.
//
// Two hard rules keep the determinism contract intact:
//   * checking a token never perturbs results — a run that is NOT
//     cancelled is byte-identical to one executed with no token at all;
//   * cancellation surfaces as a thrown CancelledError, never as a
//     silently truncated result, so partial work cannot be mistaken for
//     (or cached as) a completed answer.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

namespace clo::util {

/// Why a token fired. kDeadline wins only when the deadline expired before
/// any explicit cancel() call was observed.
enum class CancelReason : int { kNone = 0, kExplicit = 1, kDeadline = 2 };

/// Thrown by CancelToken::check() / cancel_point(). Subclasses
/// runtime_error so existing catch(...) fault paths release resources, but
/// is distinguishable where cancellation must bypass retry machinery
/// (e.g. the restart driver rethrows instead of quarantining).
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(CancelReason reason)
      : std::runtime_error(reason == CancelReason::kDeadline
                               ? "cancelled: deadline exceeded"
                               : "cancelled"),
        reason_(reason) {}
  CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

/// Copyable cancellation handle. All copies share one state: cancel() on
/// any copy is observed by every other. Default-constructed tokens are
/// valid, never-cancelled tokens (cheap to pass around as a no-op).
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() : state_(std::make_shared<State>()) {}

  /// Arm a wall-clock deadline `ms` milliseconds from now. ms <= 0 means
  /// already expired. A second call tightens or loosens the deadline.
  void set_deadline_ms(std::int64_t ms) {
    state_->deadline_ns.store(
        now_ns() + ms * 1'000'000,
        std::memory_order_release);
  }

  /// Explicitly cancel. Idempotent; an explicit cancel is not overwritten
  /// by a later deadline expiry.
  void cancel(CancelReason reason = CancelReason::kExplicit) {
    int expected = static_cast<int>(CancelReason::kNone);
    state_->reason.compare_exchange_strong(expected,
                                           static_cast<int>(reason),
                                           std::memory_order_acq_rel);
  }

  /// True once cancelled or past deadline. Latches: a deadline observed
  /// expired records kDeadline so later reason() queries are stable.
  bool cancelled() const {
    if (state_->reason.load(std::memory_order_acquire) !=
        static_cast<int>(CancelReason::kNone)) {
      return true;
    }
    const std::int64_t dl =
        state_->deadline_ns.load(std::memory_order_acquire);
    if (dl != kNoDeadline && now_ns() >= dl) {
      int expected = static_cast<int>(CancelReason::kNone);
      state_->reason.compare_exchange_strong(
          expected, static_cast<int>(CancelReason::kDeadline),
          std::memory_order_acq_rel);
      return true;
    }
    return false;
  }

  CancelReason reason() const {
    return static_cast<CancelReason>(
        state_->reason.load(std::memory_order_acquire));
  }

  /// Throws CancelledError when cancelled; otherwise a no-op.
  void check() const {
    if (cancelled()) throw CancelledError(reason());
  }

  /// Milliseconds until the deadline (clamped at 0), or `fallback` when no
  /// deadline is armed. Handy for sizing timed waits.
  std::int64_t remaining_ms(std::int64_t fallback = -1) const {
    const std::int64_t dl =
        state_->deadline_ns.load(std::memory_order_acquire);
    if (dl == kNoDeadline) return fallback;
    const std::int64_t left = (dl - now_ns()) / 1'000'000;
    return left > 0 ? left : 0;
  }

  bool has_deadline() const {
    return state_->deadline_ns.load(std::memory_order_acquire) !=
           kNoDeadline;
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  struct State {
    std::atomic<int> reason{static_cast<int>(CancelReason::kNone)};
    std::atomic<std::int64_t> deadline_ns{kNoDeadline};
  };
  std::shared_ptr<State> state_;
};

/// The ambient (thread-local) token, for code too deep to take a token
/// parameter without churning every signature (truth-table synthesis, the
/// rewrite engine). nullptr when none is installed.
const CancelToken* current_cancel_token();

/// Checks the ambient token if one is installed; no-op otherwise. Cheap
/// enough for per-transform / per-synthesis granularity.
void cancel_point();

/// RAII: installs `token` as the current thread's ambient token for the
/// scope (restoring the previous one on exit). Installed around the
/// single-threaded synthesis block in QorEvaluator::evaluate so opt-layer
/// cancel_point() calls observe the request's token.
class ScopedCancelToken {
 public:
  explicit ScopedCancelToken(const CancelToken* token);
  ~ScopedCancelToken();
  ScopedCancelToken(const ScopedCancelToken&) = delete;
  ScopedCancelToken& operator=(const ScopedCancelToken&) = delete;

 private:
  const CancelToken* previous_;
};

}  // namespace clo::util
