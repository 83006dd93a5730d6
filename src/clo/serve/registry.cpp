#include "clo/serve/registry.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "clo/circuits/generators.hpp"
#include "clo/util/log.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/thread_pool.hpp"
#include "clo/util/timer.hpp"

namespace clo::serve {

namespace {

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Total bytes under one registry entry directory; 0 on any filesystem
/// error (an unreadable directory must not wedge eviction).
std::uintmax_t dir_bytes(const std::filesystem::path& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      const auto sz = it->file_size(ec);
      if (!ec) total += sz;
    }
  }
  return total;
}

}  // namespace

ModelRegistry::Entry::Entry(std::string key_, aig::Aig circuit,
                            core::PipelineConfig config)
    : key(std::move(key_)),
      evaluator(std::move(circuit)),
      pipeline(std::move(config)) {}

std::string ModelRegistry::key_for(const aig::Aig& circuit,
                                   const core::PipelineConfig& config) const {
  return circuit.name() + "-" +
         hex16(core::pipeline_config_hash(config, circuit));
}

std::shared_ptr<ModelRegistry::Entry> ModelRegistry::get_or_train(
    const std::string& circuit_name, core::PipelineConfig config,
    const util::CancelToken* cancel) {
  // Unknown benchmark names throw before any registry state is touched.
  aig::Aig circuit = circuits::make_benchmark(circuit_name);
  const std::string key = key_for(circuit, config);

  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = ready_.find(key);
      if (it != ready_.end()) {
        CLO_OBS_COUNT("serve.registry_hits", 1);
        touch_locked(key);
        return it->second;
      }
      if (inflight_.insert(key).second) break;  // we train
      // Someone else is training this key: wait for their result instead
      // of duplicating hundreds of synthesis runs (single-flight). A
      // cancellable waiter polls its token so an expired deadline gives
      // up promptly without disturbing the trainer.
      if (cancel != nullptr) {
        cancel->check();
        cv_.wait_for(lock, std::chrono::milliseconds(50));
      } else {
        cv_.wait(lock);
      }
    }
  }

  try {
    if (!options_.dir.empty()) {
      config.checkpoint_dir = options_.dir + "/" + key;
      config.resume = true;
    }
    auto entry = std::make_shared<Entry>(key, std::move(circuit),
                                         std::move(config));
    entry->pipeline.set_external_pool(options_.pool);
    const bool on_disk =
        !options_.dir.empty() &&
        std::filesystem::exists(entry->pipeline.config().checkpoint_dir +
                                "/dataset.ckpt");
    Stopwatch watch;
    {
      ScopedTimer timer(watch);
      entry->pipeline.pretrain(entry->evaluator, cancel);
    }
    entry->pretrain_seconds = watch.seconds();
    entry->resumed_phases = entry->pipeline.resumed_phases();
    if (on_disk && entry->resumed_phases == 0) {
      // The directory held an entry but none of it was usable (corrupt,
      // truncated, or written under a different config): skip and warn,
      // never abort — the retrained entry overwrites it below.
      CLO_LOG_WARN << "registry: entry '" << key
                   << "' on disk was unreadable or stale; retrained";
    }
    trainings_.fetch_add(1, std::memory_order_relaxed);
    CLO_OBS_COUNT("serve.registry_trainings", 1);
    CLO_OBS_GAUGE("serve.registry_pretrain_seconds",
                  entry->pretrain_seconds);
    CLO_LOG_INFO << "registry: entry '" << key << "' ready in "
                 << entry->pretrain_seconds << " s (" << entry->resumed_phases
                 << " phase(s) from disk)";
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready_[key] = entry;
      inflight_.erase(key);
      touch_locked(key);
      enforce_budgets_locked(key);
    }
    cv_.notify_all();
    return entry;
  } catch (...) {
    // Any failure — training fault, cancellation, deadline — releases the
    // in-flight slot so racers retry; nothing was inserted into ready_,
    // so the registry holds no partial entry. On-disk phase checkpoints
    // written before the failure are individually valid (atomic
    // tmp+rename) and simply accelerate the next attempt.
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
    }
    cv_.notify_all();
    throw;
  }
}

void ModelRegistry::touch_locked(const std::string& key) {
  last_access_[key] = ++access_seq_;
}

void ModelRegistry::enforce_budgets_locked(const std::string& protect) {
  const auto lru_of = [this](const std::string& key) {
    const auto it = last_access_.find(key);
    // Keys never touched this process (e.g. directories left by an
    // earlier daemon run) are the oldest possible.
    return it == last_access_.end() ? std::uint64_t{0} : it->second;
  };

  // In-memory budget: drop LRU entries from ready_. Their checkpoints
  // stay on disk, so a later request warm-loads instead of retraining,
  // and sessions holding the shared_ptr finish unharmed.
  if (options_.max_entries > 0) {
    while (ready_.size() > options_.max_entries) {
      auto victim = ready_.end();
      for (auto it = ready_.begin(); it != ready_.end(); ++it) {
        if (it->first == protect) continue;
        if (victim == ready_.end() ||
            lru_of(it->first) < lru_of(victim->first)) {
          victim = it;
        }
      }
      if (victim == ready_.end()) break;  // only the protected entry left
      CLO_LOG_INFO << "registry: evicted in-memory entry '" << victim->first
                   << "' (max-entries " << options_.max_entries << ")";
      ready_.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      CLO_OBS_COUNT("serve.registry_evictions", 1);
    }
  }

  // Disk budget: delete LRU entry directories until under max_mb. Keys
  // being trained right now (inflight_) and the just-trained key are
  // exempt; deleting a live in-memory entry's directory is safe (the
  // models are in RAM — only a future cold start pays).
  if (options_.max_mb == 0 || options_.dir.empty()) return;
  std::error_code ec;
  std::vector<std::pair<std::string, std::uintmax_t>> on_disk;
  std::uintmax_t total = 0;
  for (std::filesystem::directory_iterator it(options_.dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_directory(ec)) continue;
    const std::string key = it->path().filename().string();
    const std::uintmax_t bytes = dir_bytes(it->path());
    total += bytes;
    if (key == protect || inflight_.count(key) != 0) continue;
    on_disk.emplace_back(key, bytes);
  }
  const std::uintmax_t budget =
      static_cast<std::uintmax_t>(options_.max_mb) * 1024 * 1024;
  if (total <= budget) return;
  std::sort(on_disk.begin(), on_disk.end(),
            [&](const auto& a, const auto& b) {
              return lru_of(a.first) < lru_of(b.first);
            });
  for (const auto& [key, bytes] : on_disk) {
    if (total <= budget) break;
    std::filesystem::remove_all(
        std::filesystem::path(options_.dir) / key, ec);
    if (ec) {
      CLO_LOG_WARN << "registry: failed to evict disk entry '" << key
                   << "': " << ec.message();
      continue;
    }
    total -= std::min(total, bytes);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    CLO_OBS_COUNT("serve.registry_evictions", 1);
    CLO_LOG_INFO << "registry: evicted disk entry '" << key << "' ("
                 << bytes / 1024 << " KiB, max-mb " << options_.max_mb
                 << ")";
  }
  if (total > budget) {
    CLO_LOG_WARN << "registry: still over disk budget after eviction ("
                 << total / (1024 * 1024) << " MiB > " << options_.max_mb
                 << " MiB)";
  }
}

std::size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ready_.size();
}

std::vector<std::string> ModelRegistry::keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(ready_.size());
  for (const auto& [key, entry] : ready_) out.push_back(key);
  return out;
}

}  // namespace clo::serve
