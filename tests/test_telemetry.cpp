// Telemetry acceptance tests: exporter lifecycle (start/stop idempotence,
// snapshot-under-concurrent-updates, JSONL well-formedness of every
// record), the Prometheus text endpoint (listener round-trip and
// name/label escaping), the span-derived profiler (balanced and
// unbalanced trees, self-time accounting, multi-thread merge), progress
// gauges, and the /proc resource sampler.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "clo/util/exporter.hpp"
#include "clo/util/log.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/proc.hpp"
#include "clo/util/thread_pool.hpp"

namespace {

using namespace clo;

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::reset_trace();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset_trace();
    obs::Registry::instance().reset();
  }
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Exporter lifecycle + JSONL stream.
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, ExporterWritesValidRecordsAndIsIdempotent) {
  const std::string path = temp_path("metrics_lifecycle.jsonl");
  std::remove(path.c_str());
  obs::Registry::instance().add_counter("test.counter", 7);
  obs::Registry::instance().set_gauge("test.gauge", 2.5);
  obs::Registry::instance().observe("test.hist", 0.25);

  util::ExporterOptions opts;
  opts.metrics_path = path;
  opts.interval_ms = 20;
  util::Exporter exporter(opts);
  ASSERT_TRUE(exporter.start());
  EXPECT_TRUE(exporter.start());  // second start is a no-op
  EXPECT_TRUE(exporter.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  exporter.stop();
  exporter.stop();  // second stop is a no-op
  EXPECT_FALSE(exporter.running());

  const auto lines = read_lines(path);
  // One record at start, one per elapsed interval, one final on stop.
  ASSERT_GE(lines.size(), 3u);
  std::uint64_t prev_seq = 0;
  double prev_t = -1.0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const obs::Json rec = obs::Json::parse(lines[i]);  // throws on bad JSON
    ASSERT_NE(rec.find("schema"), nullptr) << lines[i];
    EXPECT_EQ(rec.find("schema")->as_string(), "clo.metrics.v1");
    EXPECT_EQ(rec.find("run")->as_string(), clo::run_id());
    const std::uint64_t seq =
        static_cast<std::uint64_t>(rec.find("seq")->as_double());
    if (i > 0) {
      EXPECT_EQ(seq, prev_seq + 1) << "seq must be consecutive";
    }
    prev_seq = seq;
    const double t = rec.find("t_ms")->as_double();
    EXPECT_GE(t, prev_t);
    prev_t = t;
    EXPECT_EQ(static_cast<std::uint64_t>(rec.find("counters")
                                             ->find("test.counter")
                                             ->as_double()),
              7u);
    EXPECT_DOUBLE_EQ(rec.find("gauges")->find("test.gauge")->as_double(),
                     2.5);
    const obs::Json* hist = rec.find("histograms")->find("test.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(static_cast<int>(hist->find("count")->as_double()), 1);
    // Exporter resource gauges ride along on every record.
    EXPECT_GT(rec.find("gauges")->find("proc.peak_rss_bytes")->as_double(),
              0.0);
  }
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, ExporterWithoutSinksRefusesToStart) {
  util::Exporter exporter;
  EXPECT_FALSE(exporter.start());
  EXPECT_FALSE(exporter.running());
  exporter.stop();  // harmless on a never-started exporter
}

TEST_F(TelemetryTest, ExporterSnapshotsUnderConcurrentUpdates) {
  const std::string path = temp_path("metrics_concurrent.jsonl");
  std::remove(path.c_str());
  util::ExporterOptions opts;
  opts.metrics_path = path;
  opts.interval_ms = 5;
  util::Exporter exporter(opts);
  ASSERT_TRUE(exporter.start());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::Registry::instance().add_counter("conc.counter");
        if (i % 64 == 0) {
          obs::Registry::instance().observe("conc.hist", i * 1e-6);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  exporter.stop();

  const auto lines = read_lines(path);
  ASSERT_GE(lines.size(), 2u);
  // Every mid-flight record parses; the final record is exact.
  std::uint64_t last_count = 0;
  for (const auto& line : lines) {
    const obs::Json rec = obs::Json::parse(line);
    const obs::Json* c = rec.find("counters")->find("conc.counter");
    if (c != nullptr) {
      const auto v = static_cast<std::uint64_t>(c->as_double());
      EXPECT_GE(v, last_count) << "counter must be monotone across records";
      last_count = v;
    }
  }
  EXPECT_EQ(last_count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Prometheus endpoint.
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, PrometheusNamesAreSanitized) {
  EXPECT_EQ(obs::prometheus_name("pipeline.optimize_seconds"),
            "clo_pipeline_optimize_seconds");
  EXPECT_EQ(obs::prometheus_name("weird-name with spaces"),
            "clo_weird_name_with_spaces");
  EXPECT_EQ(obs::prometheus_name("ok_name:sub"), "clo_ok_name:sub");
}

TEST_F(TelemetryTest, PrometheusLabelEscaping) {
  EXPECT_EQ(obs::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prometheus_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheus_escape_label("a\nb"), "a\\nb");
}

TEST_F(TelemetryTest, PrometheusTextFormat) {
  auto& reg = obs::Registry::instance();
  reg.add_counter("my.counter", 3);
  reg.set_gauge("my.gauge", 1.5);
  reg.observe("my.hist", 0.5);
  const std::string text = reg.snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE clo_my_counter_total counter\n"
                      "clo_my_counter_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE clo_my_gauge gauge\nclo_my_gauge 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE clo_my_hist summary\n"), std::string::npos);
  EXPECT_NE(text.find("clo_my_hist{quantile=\"0.5\"} "), std::string::npos);
  EXPECT_NE(text.find("clo_my_hist{quantile=\"0.99\"} "), std::string::npos);
  EXPECT_NE(text.find("clo_my_hist_sum 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("clo_my_hist_count 1\n"), std::string::npos);
}

TEST_F(TelemetryTest, ListenerServesPrometheusOverHttp) {
  obs::Registry::instance().add_counter("http.requests", 42);
  util::ExporterOptions opts;
  opts.port = 0;  // ephemeral
  util::Exporter exporter(opts);
  ASSERT_TRUE(exporter.start());
  ASSERT_GT(exporter.bound_port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(exporter.bound_port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const char request[] = "GET / HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, request, sizeof request - 1, 0), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  exporter.stop();

  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("clo_http_requests_total 42\n"),
            std::string::npos);
  // Content-Length must equal the actual body size.
  const auto header_end = response.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  const std::string body = response.substr(header_end + 4);
  const auto cl_pos = response.find("Content-Length: ");
  ASSERT_NE(cl_pos, std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::atoi(response.c_str() + cl_pos + 16)),
            body.size());
}

TEST_F(TelemetryTest, ListenerSurvivesClientDisconnectMidResponse) {
  // Enough metrics that the response body far exceeds a socket send
  // buffer: the listener is guaranteed to still be writing when the
  // client slams the connection shut. Before MSG_NOSIGNAL (and the
  // process-wide SIGPIPE ignore) this killed the whole process.
  for (int i = 0; i < 20000; ++i) {
    obs::Registry::instance().add_counter(
        "disconnect.stress.metric_number_" + std::to_string(i), i);
  }
  util::ExporterOptions opts;
  opts.port = 0;
  util::Exporter exporter(opts);
  ASSERT_TRUE(exporter.start());

  for (int round = 0; round < 3; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(exporter.bound_port()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    const char request[] = "GET / HTTP/1.0\r\n\r\n";
    ASSERT_GT(::send(fd, request, sizeof request - 1, 0), 0);
    ::close(fd);  // disconnect before reading a single response byte
  }

  // The listener thread must still be alive and serving.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(exporter.bound_port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const char request[] = "GET / HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, request, sizeof request - 1, 0), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  exporter.stop();
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find("disconnect_stress_metric_number_19999"),
            std::string::npos);
}

TEST_F(TelemetryTest, ListenerClosesSilentClientsInsteadOfStalling) {
  obs::Registry::instance().add_counter("silent.test", 1);
  util::ExporterOptions opts;
  opts.port = 0;
  opts.idle_timeout_ms = 200;  // close do-nothing clients quickly
  util::Exporter exporter(opts);
  ASSERT_TRUE(exporter.start());

  // A client that connects and never sends a request used to park the
  // single listener thread in a blocking ::recv forever.
  const int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(exporter.bound_port()));
  ASSERT_EQ(
      ::connect(silent, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  // A real scrape right behind it must still be answered (the silent
  // client costs at most idle_timeout_ms).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const char request[] = "GET / HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, request, sizeof request - 1, 0), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;

  // And the silent client was closed by the server, not left hanging.
  char byte = 0;
  EXPECT_EQ(::recv(silent, &byte, 1, 0), 0);  // EOF
  ::close(silent);
  exporter.stop();
}

// ---------------------------------------------------------------------------
// Span-derived profiler.
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, ProfileAggregatesBalancedTree) {
  {
    obs::ScopedSpan outer("outer");
    for (int i = 0; i < 3; ++i) {
      obs::ScopedSpan inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const obs::Profile profile = obs::build_profile();
  ASSERT_EQ(profile.nodes.size(), 2u);
  const obs::ProfileNode& outer = profile.nodes[0];
  const obs::ProfileNode& inner = profile.nodes[1];
  EXPECT_EQ(outer.path, "outer");
  EXPECT_EQ(inner.path, "outer/inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 3u);
  // Self excludes children; total includes them.
  EXPECT_GE(outer.total_s, inner.total_s);
  EXPECT_LE(outer.self_s, outer.total_s - inner.total_s + 1e-9);
  EXPECT_GT(inner.p50_s, 0.0);
  EXPECT_GE(inner.p99_s, inner.p50_s);
  // Same label at top level stays distinct from the nested path.
  {
    obs::ScopedSpan lone("inner");
  }
  EXPECT_EQ(obs::build_profile().nodes.size(), 3u);
}

TEST_F(TelemetryTest, ProfileHandlesUnbalancedStream) {
  // An open (never-ended) span must be skipped, not mispaired.
  auto* leaked = new obs::ScopedSpan("open.never.ends");
  {
    obs::ScopedSpan ok("closed");
  }
  const obs::Profile profile = obs::build_profile();
  ASSERT_EQ(profile.nodes.size(), 1u);
  // The open parent contributes no node, and the closed child nests under
  // it (path reflects the still-open parent frame).
  EXPECT_EQ(profile.nodes[0].path, "open.never.ends/closed");
  delete leaked;  // balance the trace for TearDown
}

TEST_F(TelemetryTest, ProfileMergesAcrossThreads) {
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      obs::ScopedSpan outer("work");
      for (int i = 0; i < 5; ++i) {
        obs::ScopedSpan inner("work.step");
      }
    });
  }
  for (auto& w : workers) w.join();
  const obs::Profile profile = obs::build_profile();
  ASSERT_EQ(profile.nodes.size(), 2u);
  EXPECT_EQ(profile.nodes[0].path, "work");
  EXPECT_EQ(profile.nodes[0].count, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(profile.nodes[1].path, "work/work.step");
  EXPECT_EQ(profile.nodes[1].count,
            static_cast<std::uint64_t>(kThreads) * 5);
}

TEST_F(TelemetryTest, ProfileJsonSchema) {
  {
    obs::ScopedSpan span("solo");
  }
  const obs::Json json = obs::build_profile().to_json();
  EXPECT_EQ(json.find("schema")->as_string(), "clo.profile.v1");
  EXPECT_EQ(json.find("run")->as_string(), clo::run_id());
  const obs::Json* nodes = json.find("nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_EQ(nodes->size(), 1u);
  const obs::Json& node = nodes->at(0);
  EXPECT_EQ(node.find("path")->as_string(), "solo");
  EXPECT_EQ(static_cast<int>(node.find("count")->as_double()), 1);
  EXPECT_GE(node.find("total_s")->as_double(),
            node.find("self_s")->as_double());
  // Round-trips through the parser (what check_telemetry.py consumes).
  const obs::Json reparsed = obs::Json::parse(json.dump(2));
  EXPECT_EQ(reparsed.find("schema")->as_string(), "clo.profile.v1");
}

// ---------------------------------------------------------------------------
// Progress gauges.
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, ProgressGaugesAdvanceMonotonically) {
  obs::Progress progress("phasex", 100);
  auto fraction = [] {
    return obs::Registry::instance().snapshot().gauges.at(
        "progress.phasex.fraction");
  };
  EXPECT_DOUBLE_EQ(fraction(), 0.0);
  double prev = 0.0;
  for (int i = 0; i < 100; ++i) {
    progress.tick();
    const double f = fraction();
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(fraction(), 1.0);
  const auto gauges = obs::Registry::instance().snapshot().gauges;
  EXPECT_DOUBLE_EQ(gauges.at("progress.phasex.total"), 100.0);
  EXPECT_DOUBLE_EQ(gauges.at("progress.phasex.done"), 100.0);
  EXPECT_GE(gauges.at("progress.phasex.eta_seconds"), 0.0);
}

TEST_F(TelemetryTest, ProgressIsInertWhenDisabledOrEmpty) {
  obs::set_enabled(false);
  obs::Progress off("off.phase", 10);
  off.tick(10);
  obs::set_enabled(true);
  obs::Progress empty("empty.phase", 0);
  empty.tick();
  const auto gauges = obs::Registry::instance().snapshot().gauges;
  EXPECT_EQ(gauges.count("progress.off.phase.fraction"), 0u);
  EXPECT_EQ(gauges.count("progress.empty.phase.fraction"), 0u);
}

TEST_F(TelemetryTest, ProgressTicksAreThreadSafe) {
  constexpr std::uint64_t kTotal = 8 * 10000;
  obs::Progress progress("mt.phase", kTotal);
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) progress.tick();
    });
  }
  for (auto& w : workers) w.join();
  const auto gauges = obs::Registry::instance().snapshot().gauges;
  EXPECT_DOUBLE_EQ(gauges.at("progress.mt.phase.fraction"), 1.0);
}

// ---------------------------------------------------------------------------
// Resource sampling.
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, ProcSamplerReportsPlausibleValues) {
  EXPECT_GT(util::proc::peak_rss_bytes(), 0u);
  EXPECT_GT(util::proc::current_rss_bytes(), 0u);
  EXPECT_LE(util::proc::current_rss_bytes(),
            util::proc::peak_rss_bytes() * 2);  // same order of magnitude
  // Process CPU time is monotone and advances while this thread spins.
  const double cpu_before = util::proc::cpu_seconds();
  EXPECT_GT(cpu_before, 0.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (util::proc::cpu_seconds() <= cpu_before &&
         std::chrono::steady_clock::now() < deadline) {
  }
  EXPECT_GT(util::proc::cpu_seconds(), cpu_before);
  util::proc::sample_into_registry();
  const auto gauges = obs::Registry::instance().snapshot().gauges;
  EXPECT_GT(gauges.at("proc.peak_rss_bytes"), 0.0);
}

}  // namespace
