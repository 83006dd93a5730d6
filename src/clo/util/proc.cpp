#include "clo/util/proc.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "clo/util/obs.hpp"

namespace clo::util::proc {

namespace {

/// Parse "VmHWM:   12345 kB" style lines from /proc/self/status.
std::uint64_t status_field_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') {
      continue;
    }
    unsigned long long value = 0;
    if (std::sscanf(line + key_len + 1, "%llu", &value) == 1) kb = value;
    break;
  }
  std::fclose(f);
  return kb;
}

}  // namespace

std::uint64_t peak_rss_bytes() {
  if (const std::uint64_t kb = status_field_kb("VmHWM")) return kb * 1024;
  // Fallback (containers without /proc): ru_maxrss is in kilobytes on
  // Linux.
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  }
  return 0;
}

std::uint64_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0, resident_pages = 0;
  const int n = std::fscanf(f, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(f);
  if (n != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return resident_pages * static_cast<std::uint64_t>(page > 0 ? page : 4096);
}

double cpu_seconds() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

void sample_into_registry() {
  auto& reg = obs::Registry::instance();
  reg.set_gauge("proc.peak_rss_bytes",
                static_cast<double>(peak_rss_bytes()));
  reg.set_gauge("proc.current_rss_bytes",
                static_cast<double>(current_rss_bytes()));
}

}  // namespace clo::util::proc
