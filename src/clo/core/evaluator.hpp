#pragma once
// QoR evaluation service: applies a synthesis sequence to (a copy of) the
// target circuit, technology-maps it, and returns area/delay — the role
// ABC + ASAP7 plays in the paper. Tracks synthesis wall time and call
// counts separately so optimizers can report algorithm-only runtime the
// way the paper's Fig. 5 does (ABC time subtracted).
//
// Thread-safety contract: evaluate() may be called concurrently from any
// number of threads. The memo cache is sharded (hash of the sequence key
// picks a mutex-guarded shard) and synthesis itself runs outside any lock.
// Misses are single-flight per key: the first thread to miss synthesizes,
// and any thread racing on the same key waits on the shard's condition
// variable for that result instead of duplicating the run — so
// `unique_runs` counts exactly one synthesis per distinct sequence and
// `synth_seconds` never double-bills a sequence. Counters are atomic, and
// synthesis wall time is accumulated per call as atomic nanoseconds, so
// concurrent runs of *different* sequences still sum their (possibly
// overlapping) intervals — the same "total ABC time" bucket the serial
// accounting reports.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "clo/aig/aig.hpp"
#include "clo/opt/transform.hpp"
#include "clo/techmap/tech_map.hpp"
#include "clo/util/cancel.hpp"
#include "clo/util/timer.hpp"

namespace clo::core {

struct Qor {
  double area_um2 = 0.0;
  double delay_ps = 0.0;
};

/// Consistent view of the evaluator's usage counters — the single stats
/// surface (the raw atomics are an implementation detail).
struct EvaluatorStats {
  std::size_t queries = 0;       ///< evaluate() calls, cache hits included
  std::size_t unique_runs = 0;   ///< non-memoized synthesis runs
  std::size_t cache_hits = 0;    ///< queries answered from the memo cache
  double hit_rate = 0.0;         ///< cache_hits / queries (0 when idle)
  double synth_seconds = 0.0;    ///< wall time inside synthesis+mapping
};

class QorEvaluator {
 public:
  explicit QorEvaluator(aig::Aig circuit);

  /// Synthesize with `seq` and map; memoized per distinct sequence.
  /// Safe to call concurrently (see thread-safety contract above).
  /// `cancel` is polled on entry, while waiting on another thread's
  /// in-flight synthesis of the same key, and (via the thread-local
  /// ambient token) inside the synthesis transforms themselves; a fired
  /// token throws util::CancelledError. A cancelled miss owner hands the
  /// miss back exactly like any other failure, so racing threads retry
  /// and the cache never holds partial results.
  Qor evaluate(const opt::Sequence& seq,
               const util::CancelToken* cancel = nullptr);

  /// QoR of the unoptimized circuit (empty sequence).
  Qor original();

  const aig::Aig& circuit() const { return circuit_; }

  /// Usage counters since construction (or the last reset_stats()).
  /// `synth_seconds` is the "ABC time" bucket; concurrent synthesis runs
  /// each contribute their full duration.
  EvaluatorStats snapshot() const;

  /// Zero the usage counters (the memo cache is kept — bench repetitions
  /// reset accounting without paying for re-synthesis).
  void reset_stats();

 private:
  static constexpr std::size_t kNumShards = 16;
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;         ///< signaled when an in-flight key lands
    std::map<std::string, Qor> cache;
    std::set<std::string> inflight;     ///< keys some thread is synthesizing
  };

  Shard& shard_for(const std::string& key);

  aig::Aig circuit_;
  techmap::CellLibrary lib_;
  std::array<Shard, kNumShards> shards_;
  std::atomic<std::uint64_t> synth_ns_{0};
  std::atomic<std::size_t> num_runs_{0};
  std::atomic<std::size_t> num_queries_{0};
  std::atomic<std::size_t> num_hits_{0};
};

}  // namespace clo::core
