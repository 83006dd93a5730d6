#include "clo/core/evaluator.hpp"

#include <chrono>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "clo/util/fault.hpp"
#include "clo/util/obs.hpp"

namespace clo::core {

QorEvaluator::QorEvaluator(aig::Aig circuit)
    : circuit_(std::move(circuit)), lib_(techmap::CellLibrary::asap7()) {}

QorEvaluator::Shard& QorEvaluator::shard_for(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kNumShards];
}

Qor QorEvaluator::evaluate(const opt::Sequence& seq,
                           const util::CancelToken* cancel) {
  if (cancel != nullptr) cancel->check();
  num_queries_.fetch_add(1, std::memory_order_relaxed);
  CLO_OBS_COUNT("evaluator.queries", 1);
  const std::string key = opt::sequence_to_string(seq);
  Shard& shard = shard_for(key);
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    for (;;) {
      auto it = shard.cache.find(key);
      if (it != shard.cache.end()) {
        num_hits_.fetch_add(1, std::memory_order_relaxed);
        CLO_OBS_COUNT("evaluator.cache_hits", 1);
        return it->second;
      }
      // Single-flight: if another thread is already synthesizing this key,
      // wait for its insert instead of duplicating the run; re-check the
      // cache on every wake (the wake may be for a different key of this
      // shard, or the owner may have failed and handed the miss back).
      if (shard.inflight.count(key) == 0) break;
      if (cancel != nullptr) {
        // A cancellable waiter must not sleep past its deadline just
        // because another request owns the miss; wake periodically to
        // poll the token.
        cancel->check();
        shard.cv.wait_for(lock, std::chrono::milliseconds(50));
      } else {
        shard.cv.wait(lock);
      }
    }
    shard.inflight.insert(key);
  }
  // Miss owner: synthesize outside the lock so concurrent evaluations of
  // *different* sequences never serialize on the expensive part.
  CLO_TRACE_SPAN("evaluator.synthesize");
  const auto begin = std::chrono::steady_clock::now();
  num_runs_.fetch_add(1, std::memory_order_relaxed);
  CLO_OBS_COUNT("evaluator.synthesis_runs", 1);
  Qor qor;
  try {
    CLO_FAULT_POINT("evaluator.synthesize");
    if (cancel != nullptr) cancel->check();
    // Make the request's token ambient for this thread so per-transform
    // and in-synthesis cancel_point() calls observe it.
    util::ScopedCancelToken ambient(cancel);
    aig::Aig g = circuit_;
    opt::run_sequence(g, seq);
    // Report the Pareto endpoints, like ABC's map + area recovery: the
    // area of an area-oriented cover and the delay of a delay-oriented
    // cover.
    using Objective = techmap::MapParams::Objective;
    const auto area_mapped =
        techmap::tech_map(g, lib_, {.objective = Objective::kArea});
    const auto delay_mapped =
        techmap::tech_map(g, lib_, {.objective = Objective::kDelay});
    // Keep the better cover per metric: area flow is a heuristic, so
    // either objective can occasionally win on the other's metric.
    qor = Qor{std::min(area_mapped.area_um2, delay_mapped.area_um2),
              std::min(area_mapped.delay_ps, delay_mapped.delay_ps)};
    // Never cache (or report) a non-finite QoR: a NaN label would poison
    // dataset normalization and every surrogate gradient downstream.
    if (!std::isfinite(qor.area_um2) || !std::isfinite(qor.delay_ps)) {
      throw std::runtime_error("evaluator: non-finite QoR for sequence '" +
                               key + "'");
    }
  } catch (...) {
    // Hand the miss back so waiters retry rather than hang.
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inflight.erase(key);
    shard.cv.notify_all();
    throw;
  }
  const std::uint64_t elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count());
  synth_ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
  CLO_OBS_OBSERVE("evaluator.synth_seconds",
                  static_cast<double>(elapsed_ns) * 1e-9);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.cache.emplace(key, qor);
    shard.inflight.erase(key);
    shard.cv.notify_all();
  }
  return qor;
}

Qor QorEvaluator::original() { return evaluate({}); }

EvaluatorStats QorEvaluator::snapshot() const {
  EvaluatorStats stats;
  stats.queries = num_queries_.load(std::memory_order_relaxed);
  stats.unique_runs = num_runs_.load(std::memory_order_relaxed);
  stats.cache_hits = num_hits_.load(std::memory_order_relaxed);
  stats.hit_rate = stats.queries == 0
                       ? 0.0
                       : static_cast<double>(stats.cache_hits) /
                             static_cast<double>(stats.queries);
  stats.synth_seconds =
      static_cast<double>(synth_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return stats;
}

void QorEvaluator::reset_stats() {
  num_queries_.store(0, std::memory_order_relaxed);
  num_runs_.store(0, std::memory_order_relaxed);
  num_hits_.store(0, std::memory_order_relaxed);
  synth_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace clo::core
