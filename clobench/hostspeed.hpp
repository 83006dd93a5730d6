#pragma once
// Wall clock at a reference host speed.
//
// The benchmark's host is a shared VM whose speed drifts by up to 1.7x
// over seconds to minutes (neighbours' load moves the clock of the vCPUs
// under it). Two runs of identical work, minutes apart, differ by more
// than any bound a regression check could use. So the benchmark times a
// fixed calibration chunk next to the program's work and reports each
// program duration scaled to the speed at which one chunk takes
// kReferenceChunkMs: the duration the program would have taken on the
// host at its reference speed. The chunk is the benchmark's own code, so
// a change to the clo libraries moves the scaled figure exactly as it
// moves the wall clock.
//
// A HostClock splits the run into segments separated by calibration
// samples. A duration measured inside segment i is scaled by the mean of
// the samples on either side of it (samples i and i + 1). The samples
// track only the vCPU of the thread that takes them, and vCPUs drift
// apart, so the benchmark scales only work done on that same thread.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace clobench {

/// Median duration of one calibration chunk at the reference speed: its
/// median over the runs the bounds in BENCHMARK.json were set on (4-vCPU
/// Intel Xeon KVM guest, GNU 12.2, RelWithDebInfo).
inline constexpr double kReferenceChunkMs = 1.5;

/// Runs the calibration chunk once; returns its wall clock in ms.
/// Thread-safe: each thread has its own buffers.
double calibration_chunk_ms();

class HostClock {
 public:
  /// Runs a calibration sample, the mean of a few chunks (about 10 ms).
  /// It closes the open segment, if any, and opens the next one.
  void sample();

  /// The open segment: durations measured now belong to it.
  std::size_t segment() const;

  /// Reference-speed scale of a closed segment (its duration at the
  /// reference speed ÷ its wall clock).
  double factor(std::size_t segment) const;

  /// Wall clock of every closed segment at the reference speed, in
  /// seconds (the calibration samples themselves excluded).
  double reference_s() const;

  /// Median of the samples so far, in ms per chunk.
  double chunk_ms() const;

 private:
  std::vector<double> sample_ms_;            ///< sample i opens segment i
  std::vector<std::int64_t> open_ns_;        ///< end of sample i
  std::vector<std::int64_t> close_ns_;       ///< start of sample i + 1
};

}  // namespace clobench
