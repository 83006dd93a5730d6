#pragma once
// Process resource sampling for the telemetry exporter and run reports:
// resident-set-size readings from /proc (with a getrusage fallback) and
// process CPU time. Everything here is read-only with respect to the
// computation — sampling never touches an Rng, a lock shared with the hot
// path, or any model state, so the determinism contract is unaffected.

#include <cstdint>

namespace clo::util::proc {

/// Peak resident set size in bytes (VmHWM from /proc/self/status, falling
/// back to getrusage's ru_maxrss). 0 when neither source is available.
std::uint64_t peak_rss_bytes();

/// Current resident set size in bytes (/proc/self/statm). 0 when
/// unavailable.
std::uint64_t current_rss_bytes();

/// User + system CPU seconds consumed by the whole process so far
/// (getrusage(RUSAGE_SELF): every thread, finished or running). The
/// difference over an interval divided by its wall time is the number of
/// cores the process kept busy. 0 when getrusage fails.
double cpu_seconds();

/// Set the "proc.*" gauges (peak/current RSS) on the global metrics
/// registry. Called by the exporter before each snapshot; callable
/// directly for one-shot reports.
void sample_into_registry();

}  // namespace clo::util::proc
