// Tests for the wall-clock-side metrics registry, the Prometheus text
// encoder (escaping, bucket cumulativity, counter monotonicity) and the
// embedded HTTP status exporter (served over a real loopback socket).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_exporter.h"
#include "obs/metrics.h"

namespace rv::obs {
namespace {

// One blocking HTTP GET against 127.0.0.1:port; returns the raw response.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  ssize_t n = ::send(fd, req.data(), req.size(), 0);
  EXPECT_EQ(n, static_cast<ssize_t>(req.size()));
  std::string out;
  char buf[4096];
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(Metrics, CountersAreMonotonic) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.value(Metric::kPlaysCompleted), 0u);
  reg.add(Metric::kPlaysCompleted);
  reg.add(Metric::kPlaysCompleted, 41);
  EXPECT_EQ(reg.value(Metric::kPlaysCompleted), 42u);
  // The registry exposes no way to decrement or reset a counter — encode
  // twice around more adds and the exposed value can only grow.
  const auto v1 = reg.value(Metric::kPlaysCompleted);
  reg.add(Metric::kPlaysCompleted, 0);
  reg.add(Metric::kPlaysCompleted, 1);
  EXPECT_GT(reg.value(Metric::kPlaysCompleted), v1 - 1);
  EXPECT_EQ(reg.value(Metric::kPlaysCompleted), 43u);
}

TEST(Metrics, GaugesLastWriteWins) {
  MetricsRegistry reg;
  reg.set(MetricGauge::kUsersPlanned, 100);
  reg.set(MetricGauge::kUsersPlanned, 7);
  EXPECT_EQ(reg.gauge(MetricGauge::kUsersPlanned), 7);
  reg.set(MetricGauge::kLastFoldUser, -1);
  EXPECT_EQ(reg.gauge(MetricGauge::kLastFoldUser), -1);
}

TEST(Metrics, ConcurrentAddsDoNotLoseCounts) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  constexpr int kThreads = 8, kAdds = 10000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kAdds; ++i) reg.add(Metric::kUsersCompleted);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.value(Metric::kUsersCompleted),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, LabelEscaping) {
  EXPECT_EQ(prom_escape_label("plain"), "plain");
  EXPECT_EQ(prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prom_escape_label("line\nbreak"), "line\\nbreak");
  // HELP escaping keeps double quotes verbatim.
  EXPECT_EQ(prom_escape_help("a\\b \"q\"\n"), "a\\\\b \"q\"\\n");
}

TEST(Metrics, EncodeEmitsEveryFamilyWithHelpAndType) {
  MetricsRegistry reg;
  const std::string text = reg.encode_prometheus();
  for (std::size_t i = 0; i < static_cast<std::size_t>(Metric::kCount); ++i) {
    const char* name = kMetricInfo[i].name;
    EXPECT_NE(text.find(std::string("# HELP ") + name), std::string::npos);
    EXPECT_NE(text.find(std::string("# TYPE ") + name + " counter"),
              std::string::npos)
        << name;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(MetricGauge::kCount);
       ++i) {
    const char* name = kGaugeInfo[i].name;
    EXPECT_NE(text.find(std::string("# TYPE ") + name + " gauge"),
              std::string::npos)
        << name;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(MetricHist::kCount);
       ++i) {
    const char* name = kHistInfo[i].name;
    EXPECT_NE(text.find(std::string("# TYPE ") + name + " histogram"),
              std::string::npos)
        << name;
  }
  // Counter families follow the Prometheus _total convention.
  for (std::size_t i = 0; i < static_cast<std::size_t>(Metric::kCount); ++i) {
    const std::string name = kMetricInfo[i].name;
    EXPECT_EQ(name.rfind("_total"), name.size() - 6) << name;
  }
}

TEST(Metrics, EncodedCounterValueTracksAdds) {
  MetricsRegistry reg;
  reg.add(Metric::kCacheHits, 3);
  const std::string text = reg.encode_prometheus();
  EXPECT_NE(text.find("rv_study_cache_hits_total 3\n"), std::string::npos);
}

TEST(Metrics, CommonLabelStampsEverySeries) {
  MetricsRegistry reg;
  reg.set_common_label("shard", "3\"x\"");
  reg.observe(MetricHist::kPlayFps, 10.0);
  const std::string text = reg.encode_prometheus();
  EXPECT_NE(text.find("rv_plays_completed_total{shard=\"3\\\"x\\\"\"} 0"),
            std::string::npos);
  // Histogram buckets merge the common label with le=.
  EXPECT_NE(text.find("rv_play_fps_bucket{shard=\"3\\\"x\\\"\",le=\"+Inf\"} 1"),
            std::string::npos);
}

// Parses every `<hist>_bucket{...le="..."} <n>` line in order.
std::vector<std::pair<std::string, std::uint64_t>> bucket_lines(
    const std::string& text, const std::string& hist) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::istringstream is(text);
  std::string line;
  const std::string prefix = hist + "_bucket{";
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const auto le_pos = line.find("le=\"");
    const auto le_end = line.find('"', le_pos + 4);
    const auto space = line.rfind(' ');
    out.emplace_back(line.substr(le_pos + 4, le_end - le_pos - 4),
                     std::stoull(line.substr(space + 1)));
  }
  return out;
}

TEST(Metrics, HistogramBucketsAreCumulative) {
  MetricsRegistry reg;
  reg.observe(MetricHist::kPlayFps, 1.0);
  reg.observe(MetricHist::kPlayFps, 15.0);
  reg.observe(MetricHist::kPlayFps, 29.97);
  reg.observe(MetricHist::kPlayFps, 1000.0);  // clamps into the last bin
  const std::string text = reg.encode_prometheus();
  const auto buckets = bucket_lines(text, "rv_play_fps");
  ASSERT_EQ(buckets.size(),
            kHistInfo[static_cast<std::size_t>(MetricHist::kPlayFps)].bins +
                1);  // finite bins + +Inf
  std::uint64_t prev = 0;
  for (const auto& [le, count] : buckets) {
    EXPECT_GE(count, prev) << "bucket le=" << le << " not cumulative";
    prev = count;
  }
  EXPECT_EQ(buckets.back().first, "+Inf");
  EXPECT_EQ(buckets.back().second, 4u);  // +Inf bucket == total observations
  EXPECT_NE(text.find("rv_play_fps_count 4\n"), std::string::npos);
  // _sum is the exact sum of observations (clamping affects bins, not sum).
  EXPECT_NE(text.find("rv_play_fps_sum 1045.97"), std::string::npos);
}

TEST(Metrics, ProgressSnapshotRatesAndEta) {
  MetricsRegistry reg;
  reg.set(MetricGauge::kUsersPlanned, 100);
  reg.add(Metric::kUsersCompleted, 50);
  reg.add(Metric::kPlaysCompleted, 500);
  const ProgressSnapshot s = snapshot_progress(reg);
  EXPECT_EQ(s.users_done, 50u);
  EXPECT_EQ(s.users_total, 100u);
  EXPECT_FALSE(s.done);
  EXPECT_GT(s.elapsed_seconds, 0.0);
  EXPECT_GT(s.users_per_sec, 0.0);
  EXPECT_GT(s.eta_seconds, 0.0);
  // ETA at a constant rate is (remaining / rate).
  EXPECT_NEAR(s.eta_seconds, 50.0 / s.users_per_sec, 1e-9);

  reg.add(Metric::kUsersCompleted, 50);
  const ProgressSnapshot done = snapshot_progress(reg);
  EXPECT_TRUE(done.done);
  EXPECT_EQ(done.eta_seconds, 0.0);
}

TEST(Metrics, ProgressJsonRendersNullEtaWhenUnknown) {
  ProgressSnapshot s;  // users_total == 0 → eta unknown
  const std::string json = progress_json(s);
  EXPECT_NE(json.find("\"eta_seconds\":null"), std::string::npos);
  EXPECT_NE(json.find("\"done\":false"), std::string::npos);
  s.users_total = 10;
  s.users_done = 10;
  s.done = true;
  s.eta_seconds = 0.0;
  const std::string done = progress_json(s);
  EXPECT_NE(done.find("\"eta_seconds\":0"), std::string::npos);
  EXPECT_NE(done.find("\"done\":true"), std::string::npos);
}

TEST(Metrics, HookSitesAreNoOpsWithoutRegistry) {
  install_metrics(nullptr);
  metrics_add(Metric::kPlaysCompleted, 5);
  metrics_gauge_set(MetricGauge::kUsersPlanned, 9);
  metrics_observe(MetricHist::kPlayFps, 30.0);
  MetricsRegistry reg;
  install_metrics(&reg);
  metrics_add(Metric::kPlaysCompleted, 5);
  EXPECT_EQ(reg.value(Metric::kPlaysCompleted), 5u);
  install_metrics(nullptr);
  metrics_add(Metric::kPlaysCompleted, 5);
  EXPECT_EQ(reg.value(Metric::kPlaysCompleted), 5u);
}

TEST(Metrics, ParseStatusPort) {
  EXPECT_EQ(parse_status_port("0"), 0);
  EXPECT_EQ(parse_status_port("8080"), 8080);
  EXPECT_EQ(parse_status_port("65535"), 65535);
  EXPECT_FALSE(parse_status_port("65536").has_value());
  EXPECT_FALSE(parse_status_port("-1").has_value());
  EXPECT_FALSE(parse_status_port("http").has_value());
  EXPECT_FALSE(parse_status_port("").has_value());
  EXPECT_FALSE(parse_status_port("80x").has_value());
}

TEST(StatusServer, ServesMetricsProgressAndHealth) {
  MetricsRegistry reg;
  reg.add(Metric::kPlaysCompleted, 7);
  reg.set(MetricGauge::kUsersPlanned, 3);
  StatusServer server(&reg);
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;
  ASSERT_GT(server.port(), 0);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("rv_plays_completed_total 7"), std::string::npos);

  const std::string progress = http_get(server.port(), "/progress");
  EXPECT_NE(progress.find("application/json"), std::string::npos);
  EXPECT_NE(progress.find("\"plays\":7"), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  // Every served request bumped the request counter (4 so far).
  EXPECT_EQ(reg.value(Metric::kHttpRequests), 4u);
  server.stop();
}

TEST(StatusServer, CustomProgressCallbackAndQueryStrings) {
  MetricsRegistry reg;
  StatusServer server(&reg, [] { return std::string("{\"custom\":1}"); });
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;
  const std::string progress =
      http_get(server.port(), "/progress?refresh=1");
  EXPECT_NE(progress.find("{\"custom\":1}"), std::string::npos);
}

TEST(StatusServer, RebindingSamePortFails) {
  MetricsRegistry reg;
  StatusServer a(&reg);
  std::string error;
  ASSERT_TRUE(a.start(0, &error)) << error;
  StatusServer b(&reg);
  EXPECT_FALSE(b.start(a.port(), &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace rv::obs
