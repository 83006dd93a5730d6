#include "hostspeed.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "trace.hpp"

namespace clobench {

namespace {

constexpr int kChunksPerSample = 5;
constexpr int kDim = 64;            ///< matrix product size
constexpr int kTableBits = 16;      ///< random-walk table: 64 Ki entries
constexpr int kWalkSteps = 200000;

std::atomic<double> g_sink{0.0};

}  // namespace

// The chunk mixes the two kinds of work the clo modules do: a dense
// float matrix product (the nn kernels) and a hashed, branchy random walk
// over a 256 KiB table (AIG rewriting and mapping). Its inputs are reset
// every time, so every chunk does the same work.
double calibration_chunk_ms() {
  thread_local std::vector<float> a(kDim * kDim), b(kDim * kDim),
      c(kDim * kDim);
  thread_local std::vector<std::uint32_t> table(std::size_t{1} << kTableBits);
  const std::int64_t begin = now_ns();
  for (int i = 0; i < kDim * kDim; ++i) {
    a[i] = 1.0f + static_cast<float>(i % 7) * 0.125f;
    b[i] = 1.0f - static_cast<float>(i % 5) * 0.0625f;
    c[i] = 0.0f;
  }
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < kDim; ++i) {
      for (int k = 0; k < kDim; ++k) {
        const float x = a[i * kDim + k];
        for (int j = 0; j < kDim; ++j) c[i * kDim + j] += x * b[k * kDim + j];
      }
    }
  }
  std::fill(table.begin(), table.end(), 0u);
  constexpr std::uint32_t kMask = (1u << kTableBits) - 1;
  std::uint32_t h = 2166136261u;
  for (int i = 0; i < kWalkSteps; ++i) {
    h = (h ^ table[h & kMask]) * 16777619u;
    if (h & 1u) {
      table[(h >> 7) & kMask] += static_cast<std::uint32_t>(i);
    } else {
      table[(h >> 3) & kMask] ^= h;
    }
  }
  // Publishing the result keeps the compiler from dropping the work.
  g_sink.store(c[kDim + 1] + static_cast<double>(h), std::memory_order_relaxed);
  return static_cast<double>(now_ns() - begin) * 1e-6;
}

void HostClock::sample() {
  const std::int64_t begin = now_ns();
  if (!sample_ms_.empty()) close_ns_.push_back(begin);
  // The mean, not the median: the host switches between a fast and a slow
  // state every few milliseconds, and the program runs through the slow
  // spells too, so it slows by the share of time spent in them.
  double total = 0.0;
  for (int i = 0; i < kChunksPerSample; ++i) total += calibration_chunk_ms();
  sample_ms_.push_back(total / kChunksPerSample);
  open_ns_.push_back(now_ns());
}

std::size_t HostClock::segment() const {
  if (sample_ms_.empty()) throw std::logic_error("HostClock: no sample yet");
  return sample_ms_.size() - 1;
}

double HostClock::factor(std::size_t segment) const {
  if (segment + 1 >= sample_ms_.size()) {
    throw std::logic_error("HostClock: segment not closed");
  }
  return 2.0 * kReferenceChunkMs /
         (sample_ms_[segment] + sample_ms_[segment + 1]);
}

double HostClock::reference_s() const {
  double s = 0.0;
  for (std::size_t i = 0; i < close_ns_.size(); ++i) {
    s += static_cast<double>(close_ns_[i] - open_ns_[i]) * 1e-9 * factor(i);
  }
  return s;
}

double HostClock::chunk_ms() const {
  std::vector<double> v = sample_ms_;
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

}  // namespace clobench
