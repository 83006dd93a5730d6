#pragma once
// The persistent model registry behind `clo serve`: one entry per
// (circuit, config) pair — keyed by the circuit name plus the
// pipeline_config_hash — holding the trained surrogate + diffusion models,
// the labeled dataset, and the sharded-cache QorEvaluator whose memo table
// answers warm QoR queries in microseconds.
//
// Semantics:
//   * get-or-train: the first request for a key pays pretraining (or a
//     checkpoint load when the registry directory already holds the
//     entry); every later request reuses the in-memory entry.
//   * single-flight: concurrent requests for the same key train ONCE —
//     racers wait on a condition variable for the trainer, exactly the
//     QorEvaluator in-flight discipline, so a thundering herd of identical
//     circuits costs one pretraining run.
//   * durable: with a registry directory, entries persist through the
//     CLOCKPT1 phase-checkpoint container (dataset/surrogate/diffusion
//     files under <dir>/<key>/) and survive daemon restarts; the fsynced
//     atomic write makes a committed entry survive power loss. A corrupt
//     or stale entry is skipped with a warning and retrained — never a
//     crash, never a daemon that refuses to start.
//   * bounded: max_entries LRU-evicts in-memory entries (their disk
//     checkpoints stay, so a re-request warm-loads instead of retraining)
//     and max_mb LRU-evicts on-disk entry directories. Evicting a live
//     entry is safe — sessions hold shared_ptr<Entry>, so in-flight work
//     finishes on the evicted object and only new requests rebuild.
//   * cancellable: get_or_train takes an optional CancelToken. A cancelled
//     trainer releases the in-flight slot exactly like any other failure —
//     racers observe the release and retrain cleanly, and no partial entry
//     ever lands in `ready_` (insertion happens only after pretrain()
//     returned). A cancelled *waiter* gives up without disturbing the
//     trainer.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clo/core/evaluator.hpp"
#include "clo/core/pipeline.hpp"

namespace clo::util {
class ThreadPool;
}

namespace clo::serve {

class ModelRegistry {
 public:
  struct Options {
    /// Persistence root; empty = in-memory only (entries die with the
    /// process).
    std::string dir;
    /// Shared worker pool every entry's pipeline fans out on (may be
    /// null = serial). Owned by the caller (the Server), must outlive the
    /// registry.
    util::ThreadPool* pool = nullptr;
    /// LRU budget on in-memory entries (0 = unlimited). Evicted entries
    /// keep their disk checkpoints, so re-requesting one warm-loads.
    std::size_t max_entries = 0;
    /// LRU budget on the registry directory, in MiB (0 = unlimited).
    /// Enforced after each training by deleting least-recently-used entry
    /// directories; ignored when `dir` is empty.
    std::size_t max_mb = 0;
  };

  /// One trained (circuit, config) pair. `mu` + `cv` + `optimizing`
  /// single-flight optimize() — a plain mutex held across the
  /// minutes-long optimize() would make waiting tunes uncancellable, so
  /// waiters do timed cv waits and poll their own CancelToken instead.
  /// The evaluator is internally thread-safe.
  struct Entry {
    Entry(std::string key_, aig::Aig circuit, core::PipelineConfig config);

    std::string key;
    core::QorEvaluator evaluator;
    core::CloPipeline pipeline;

    std::mutex mu;
    std::condition_variable cv;  ///< signaled when optimizing clears
    bool optimizing = false;     ///< one session runs optimize() at a time
    /// optimize() results keyed by the optimize-phase inputs the config
    /// hash leaves out, (restarts, verify). optimize() is deterministic
    /// from the pretrain boundary, so every warm tune with the same inputs
    /// answers from here.
    std::map<std::pair<int, bool>, core::PipelineResult> results;

    double pretrain_seconds = 0.0;
    int resumed_phases = 0;  ///< 3 = fully loaded from the registry dir
  };

  explicit ModelRegistry(Options options) : options_(std::move(options)) {}

  /// Look up (or build) the entry for `circuit_name` under `config`.
  /// Blocks while another thread trains the same key (single-flight).
  /// Throws std::invalid_argument for an unknown benchmark name and
  /// propagates training failures (after releasing the in-flight slot so
  /// racers can retry). `cancel` is polled during training (plumbed into
  /// pretrain()) and while waiting on another thread's training; a fired
  /// token throws util::CancelledError and leaves the registry exactly as
  /// if the request never happened.
  std::shared_ptr<Entry> get_or_train(
      const std::string& circuit_name, core::PipelineConfig config,
      const util::CancelToken* cancel = nullptr);

  /// Registry key for one (circuit, config) pair:
  /// "<circuit>-<16-hex config hash>".
  std::string key_for(const aig::Aig& circuit,
                      const core::PipelineConfig& config) const;

  std::size_t size() const;
  std::vector<std::string> keys() const;
  /// Pretraining runs actually executed (a single-flight race counts
  /// once; a fully checkpoint-resumed build still counts — check the
  /// entry's resumed_phases to distinguish).
  std::uint64_t trainings() const {
    return trainings_.load(std::memory_order_relaxed);
  }
  /// Entries LRU-evicted so far (in-memory and on-disk evictions both
  /// count once each).
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

 private:
  /// Record `key` as most-recently-used (callers hold mu_).
  void touch_locked(const std::string& key);
  /// Enforce max_entries/max_mb by LRU eviction (callers hold mu_).
  /// `protect` is the key just trained — never evicted in this pass, so a
  /// single over-budget entry degrades to a warning, not a train/evict
  /// thrash loop.
  void enforce_budgets_locked(const std::string& protect);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< signaled when an in-flight key lands
  std::map<std::string, std::shared_ptr<Entry>> ready_;
  std::set<std::string> inflight_;
  /// LRU bookkeeping: per-key last-access sequence number. Kept for
  /// evicted keys too, so their on-disk directories age correctly.
  std::map<std::string, std::uint64_t> last_access_;
  std::uint64_t access_seq_ = 0;
  std::atomic<std::uint64_t> trainings_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace clo::serve
