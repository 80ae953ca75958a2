// Golden bytes of the four observability exporters: the flight dump, the
// Chrome trace (with telemetry counter tracks), the series CSV and the
// Prometheus text. Each input is a fixed, hand-built record, so the pinned
// md5s change only when an exporter's output format does. On a mismatch the
// test prints the full output.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "study/telemetry_report.h"
#include "synthetic_records.h"
#include "telemetry/flight.h"
#include "tracer/record.h"
#include "util/md5.h"
#include "world/path_builder.h"

namespace rv::study {
namespace {

// Every event code once (rebuffer start/stop as a pair), in code order.
obs::PlayObs golden_obs() {
  obs::PlayObs o;
  o.enabled = true;
  o.events_dropped = 3;
  for (std::uint16_t c = 0;
       c < static_cast<std::uint16_t>(obs::Code::kCodeCount); ++c) {
    obs::TraceEvent ev;
    ev.t = 1000 + 250 * c;
    ev.code = c;
    ev.cat = static_cast<std::uint16_t>(obs::cat_of(static_cast<obs::Code>(c)));
    ev.a0 = 7u * c + 1;
    ev.a1 = 1000000007ull * c;
    o.events.push_back(ev);
  }
  for (std::size_t i = 0; i < o.counters.v.size(); ++i) {
    o.counters.v[i] = 11 * i + (i % 3);
  }
  return o;
}

// Three samples over the four path links, values with fractional digits
// beyond every exporter's precision.
telemetry::PlaySeries golden_series() {
  telemetry::PlaySeries p;
  p.enabled = true;
  p.interval = msec(500);
  telemetry::Series& s = p.data;
  s.reset(world::PlayPath::kLinkCount);
  s.t = {msec(500), msec(1000), msec(1500)};
  s.buffer_sec = {0.5, 1.25, 2.0000004};
  s.fps = {14.9999996, 15.123456789, 0.0};
  s.bandwidth_kbps = {33.3333333, 0.001, 1234.5678901};
  s.cwnd_bytes = {2920.0, 4380.5, 0.0};
  s.retx_per_sec = {0.0, 2.0, 4.0004};
  s.pacing_kbps = {0.0, 123.456789, 56.7};
  s.cc_state = {0.0, 1.0, 3.0};
  for (std::size_t l = 0; l < s.links.size(); ++l) {
    const double base = 0.1 * static_cast<double>(l + 1);
    s.links[l].occupancy = {base, base + 0.0333333333, 1.0};
    s.links[l].drops = {0, l, 10 * l + 1};
  }
  return p;
}

tracer::TraceRecord golden_record(int user, std::uint32_t clip,
                                  const char* server) {
  tracer::TraceRecord rec;
  rec.user_id = user;
  rec.clip_id = clip;
  rec.server_name = server;
  rec.obs = golden_obs();
  rec.series = golden_series();
  return rec;
}

void expect_md5(const std::string& what, const std::string& bytes,
                const std::string& want) {
  EXPECT_EQ(util::md5_hex(bytes), want)
      << what << " bytes changed; full output:\n"
      << bytes;
}

TEST(ExporterGolden, FlightJson) {
  const obs::PlayObs o = golden_obs();
  const telemetry::PlaySeries series = golden_series();
  telemetry::FlightInfo info;
  info.meta = {{"user_id", "12"}, {"server", "\"east-1\""}};
  info.reasons = {"rebuffer", "low-fps"};
  info.obs = &o;
  info.series = &series;
  expect_md5("flight_json", telemetry::flight_json(info),
             "3f744e3fe4c0bf1de59f16fc8874bbbe");
}

TEST(ExporterGolden, ChromeTraceWithCounterTracks) {
  const obs::PlayObs o = golden_obs();
  obs::PlayObs quiet = golden_obs();
  quiet.events.resize(2);
  quiet.events_dropped = 0;
  const obs::PlayObs off;  // disabled: skipped
  std::vector<obs::PlayTrack> tracks(4);
  tracks[0] = {3, 0, "user 3 (modem, US)", "play 0 clip 8", &o,
               chrome_counter_series(golden_series())};
  tracks[1] = {3, 1, "user 3 (modem, US)", "play 1 \"quoted\"", &quiet, {}};
  tracks[2] = {4, 0, "user 4", "play 0", &off, {}};
  tracks[3] = {5, 2, "user 5 (t1, UK)", "play 2", &quiet, {}};
  expect_md5("chrome_trace_json", obs::chrome_trace_json(tracks),
             "9ce28d249a123646c6247f93bcf00281");
}

TEST(ExporterGolden, SeriesCsv) {
  std::vector<tracer::TraceRecord> records;
  records.push_back(golden_record(3, 8, "east-1"));
  records.push_back(golden_record(4, 9, "west-1"));
  records.back().series.enabled = false;  // skipped, but keeps its slot
  records.push_back(golden_record(5, 10, "eu,1"));
  records.back().series.data.links.resize(2);  // short rows pad with 0
  const std::string path = temp_path("series.csv");
  write_series_csv(path, records);
  expect_md5("write_series_csv", read_file(path),
             "f8038748b9db64c82191d0852d7412a4");
}

TEST(ExporterGolden, PrometheusText) {
  obs::MetricsRegistry reg;
  reg.set_common_label("shard", "1/4");
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Metric::kCount);
       ++i) {
    reg.add(static_cast<obs::Metric>(i), 100 * i + 7);
  }
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(obs::MetricGauge::kCount); ++i) {
    reg.set(static_cast<obs::MetricGauge>(i),
            static_cast<std::int64_t>(i) * 1000 - 1);
  }
  for (const double fps : {0.0, 1.5, 14.99, 15.0, 29.97, 39.9, 55.0}) {
    reg.observe(obs::MetricHist::kPlayFps, fps);
  }
  for (const double kbps : {12.5, 33.3, 250.0, 1999.0, 2500.0}) {
    reg.observe(obs::MetricHist::kPlayBandwidthKbps, kbps);
  }
  expect_md5("encode_prometheus", reg.encode_prometheus(),
             "42696407baabf5de80589927a50a02bd");
}

}  // namespace
}  // namespace rv::study
