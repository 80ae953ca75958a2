// Telemetry subsystem tests: sampler mechanics, bottleneck attribution,
// flight-recorder rendering, and the load-bearing study-level guarantees —
// per-play series and both exports (CSV, flight JSON) byte-identical at 1
// and 8 worker threads, and telemetry/profiling leaving the study results
// themselves untouched.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>

#include "obs/chrome_trace.h"
#include "sim/simulator.h"
#include "study/cache.h"
#include "study/study.h"
#include "study/telemetry_report.h"
#include "telemetry/flight.h"
#include "telemetry/sampler.h"
#include "telemetry/series.h"
#include "util/strings.h"
#include "world/path_builder.h"

namespace rv::telemetry {
namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(PlaySampler, TicksOnTheSimClockUntilFinished) {
  sim::Simulator sim;
  Series out;
  out.reset(0);
  Probe probe;
  probe.buffer_sec = [] { return 2.5; };
  // 1 frame per 50 ms of sim time — a pure function of the clock.
  probe.frames_played = [&sim] { return sim.now() / msec(50); };
  probe.finished = [&sim] { return sim.now() >= sec(2); };
  PlaySampler sampler(sim, nullptr, 0, std::move(probe), &out, msec(500));
  sampler.start();
  EXPECT_TRUE(sampler.active());
  sim.run_until(sec(10));

  // Ticks at 0.5/1.0/1.5 s sample; the 2.0 s tick sees finished and stops —
  // the series freezes instead of recording an idle tail to the horizon.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FALSE(sampler.active());
  EXPECT_EQ(out.t[0], msec(500));
  EXPECT_EQ(out.t[1], msec(1000));
  EXPECT_EQ(out.t[2], msec(1500));
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.buffer_sec[i], 2.5);
    EXPECT_DOUBLE_EQ(out.fps[i], 20.0);  // 10 frames per 500 ms interval
    EXPECT_DOUBLE_EQ(out.cwnd_bytes[i], 0.0);  // probe absent -> 0 column
  }
}

TEST(PlaySampler, ClampsBackwardSteppingCumulativeProbes) {
  sim::Simulator sim;
  Series out;
  out.reset(0);
  std::int64_t frames = 100;
  Probe probe;
  probe.frames_played = [&frames] { return frames; };
  PlaySampler sampler(sim, nullptr, 0, std::move(probe), &out, msec(500));
  sampler.sample_at(msec(500));
  EXPECT_DOUBLE_EQ(out.fps[0], 200.0);
  // The playout engine is rebuilt on TCP fallback, resetting its cumulative
  // frame count; the interval must read as zero rate, not negative.
  frames = 40;
  sampler.sample_at(msec(1000));
  EXPECT_DOUBLE_EQ(out.fps[1], 0.0);
  frames = 60;
  sampler.sample_at(msec(1500));
  EXPECT_DOUBLE_EQ(out.fps[2], 40.0);
}

TEST(BottleneckLink, ArgmaxOfOccupancyPlusDropShare) {
  Series s;
  EXPECT_EQ(bottleneck_link(s), -1);  // empty
  s.reset(3);
  EXPECT_EQ(bottleneck_link(s), -1);  // links but no samples
  s.t = {msec(500), msec(1000)};
  s.links[0].occupancy = {0.1, 0.1};
  s.links[0].drops = {0, 0};
  s.links[1].occupancy = {0.5, 0.7};
  s.links[1].drops = {0, 0};
  s.links[2].occupancy = {0.5, 0.7};
  s.links[2].drops = {0, 0};
  // Links 1 and 2 tie on mean occupancy: the lower index wins.
  EXPECT_EQ(bottleneck_link(s), 1);
  // All drops on link 2: its drop share breaks the tie decisively.
  s.links[2].drops = {5, 0};
  EXPECT_EQ(bottleneck_link(s), 2);
}

TEST(FlightJson, RendersMetaReasonsEventsAndSeries) {
  FlightInfo info;
  info.meta.emplace_back("server", util::json_quote("US \"CNN\"\n"));
  info.meta.emplace_back("user_id", "7");
  info.reasons = {"low-fps", "rebuffer"};
  const std::string bare = flight_json(info);
  EXPECT_NE(bare.find("\"meta\""), std::string::npos);
  EXPECT_NE(bare.find("\\\"CNN\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(bare.find("\\n"), std::string::npos);          // escaped newline
  EXPECT_NE(bare.find("\"low-fps\""), std::string::npos);
  EXPECT_EQ(bare.find("\"events\""), std::string::npos);  // no obs attached
  EXPECT_EQ(bare.find("\"series\""), std::string::npos);

  obs::PlayObs play_obs;
  play_obs.enabled = true;
  obs::TraceBuffer buf(4);
  buf.emit(1000, obs::Code::kRebufferStart, 1, 2);
  play_obs.events = buf.snapshot();
  PlaySeries series;
  series.enabled = true;
  series.interval = msec(500);
  series.data.reset(1);
  series.data.t = {msec(500)};
  series.data.buffer_sec = {1.5};
  series.data.fps = {20.0};
  series.data.bandwidth_kbps = {33.0};
  series.data.cwnd_bytes = {0.0};
  series.data.retx_per_sec = {0.0};
  series.data.pacing_kbps = {0.0};
  series.data.cc_state = {0.0};
  series.data.links[0].occupancy = {0.25};
  series.data.links[0].drops = {3};
  info.obs = &play_obs;
  info.series = &series;
  const std::string full = flight_json(info);
  EXPECT_NE(full.find("\"events\""), std::string::npos);
  EXPECT_NE(full.find("\"rebuffer\""), std::string::npos);  // code name
  EXPECT_NE(full.find("\"interval_usec\":500000"), std::string::npos);
  EXPECT_NE(full.find("\"drops\":[3]"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/rv_flight_unit.json";
  EXPECT_TRUE(write_flight_json(path, info));
  EXPECT_EQ(file_bytes(path), full);
  std::remove(path.c_str());
}

TEST(FlightReasons, FixedOrderAndAnalyzableGating) {
  tracer::TraceRecord rec;
  rec.stats.played_any_frame = true;
  rec.stats.measured_fps = 10.0;
  const study::FlightPredicates pred;
  EXPECT_TRUE(study::flight_reasons(rec, pred).empty());

  rec.stats.rebuffer_seconds = 11.0;
  rec.stats.fell_back_to_http = true;
  rec.stats.measured_fps = 1.0;
  const auto reasons = study::flight_reasons(rec, pred);
  ASSERT_EQ(reasons.size(), 3u);
  EXPECT_EQ(reasons[0], "rebuffer");
  EXPECT_EQ(reasons[1], "http-cloak");
  EXPECT_EQ(reasons[2], "low-fps");

  // Non-analyzable plays (unavailable / firewalled) are the availability
  // story, not flight-recorder anomalies.
  rec.stats.played_any_frame = false;
  EXPECT_TRUE(study::flight_reasons(rec, pred).empty());
}

TEST(ChromeCounterSeries, ColumnsBecomeCounterTracks) {
  PlaySeries series;
  EXPECT_TRUE(study::chrome_counter_series(series).empty());  // disabled
  series.enabled = true;
  series.interval = msec(500);
  series.data.reset(world::PlayPath::kLinkCount);
  series.data.t = {msec(500), msec(1000)};
  series.data.buffer_sec = {1.0, 2.0};
  series.data.fps = {20.0, 21.0};
  series.data.bandwidth_kbps = {30.0, 31.0};
  series.data.cwnd_bytes = {0.0, 0.0};
  series.data.retx_per_sec = {0.0, 0.0};
  series.data.pacing_kbps = {0.0, 0.0};
  series.data.cc_state = {0.0, 0.0};
  for (auto& link : series.data.links) {
    link.occupancy = {0.1, 0.2};
    link.drops = {0, 1};
  }
  const auto tracks = study::chrome_counter_series(series);
  ASSERT_EQ(tracks.size(), 7u + 2u * world::PlayPath::kLinkCount);
  EXPECT_EQ(tracks[0].name, "buffer_sec");
  EXPECT_EQ(tracks[5].name, "pacing_kbps");
  EXPECT_EQ(tracks[6].name, "cc_state");
  EXPECT_EQ(tracks[7].name, "access_occupancy");
  for (const auto& track : tracks) {
    EXPECT_EQ(track.t.size(), 2u);
    EXPECT_EQ(track.v.size(), 2u);
  }

  obs::PlayObs play_obs;
  play_obs.enabled = true;
  obs::PlayTrack track;
  track.pid = 1;
  track.tid = 0;
  track.obs = &play_obs;
  track.counters = tracks;
  const std::string json = obs::chrome_trace_json({track});
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("bandwidth_kbps"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"telemetry\""), std::string::npos);
}

// --- study-level determinism ----------------------------------------------

study::StudyConfig telemetry_mini_config() {
  study::StudyConfig config;
  config.play_scale = 0.02;
  config.seed = 2001;
  config.tracer.faults.enabled = true;
  config.tracer.faults.mechanistic_unavailability = true;
  config.tracer.faults.overload_probability = 0.05;
  config.tracer.faults.link_down_probability = 0.05;
  config.tracer.faults.corruption_probability = 0.05;
  config.tracer.telemetry.enabled = true;
  return config;
}

TEST(TelemetryStudy, SeriesAndExportsByteIdenticalAcrossThreadCounts) {
  auto config = telemetry_mini_config();
  config.tracer.obs.enabled = true;  // flight dumps carry the event ring too
  config.threads = 1;
  const auto single = study::run_study(config);
  config.threads = 8;
  const auto pooled = study::run_study(config);

  ASSERT_EQ(single.records.size(), pooled.records.size());
  std::size_t sampled = 0, samples = 0;
  for (std::size_t i = 0; i < single.records.size(); ++i) {
    const auto& a = single.records[i].series;
    const auto& b = pooled.records[i].series;
    ASSERT_EQ(a.enabled, b.enabled) << "record " << i;
    EXPECT_TRUE(a == b) << "record " << i;
    if (a.enabled && !a.data.empty()) {
      ++sampled;
      samples += a.data.size();
    }
  }
  EXPECT_GT(sampled, 0u);
  EXPECT_GT(samples, sampled);  // real multi-sample series, not stubs

  const std::string p1 = ::testing::TempDir() + "/rv_series_t1.csv";
  const std::string p8 = ::testing::TempDir() + "/rv_series_t8.csv";
  study::write_series_csv(p1, single.records);
  study::write_series_csv(p8, pooled.records);
  const std::string csv1 = file_bytes(p1);
  EXPECT_EQ(csv1.substr(0, csv1.find('\n')),
            "user_id,record_slot,clip_id,server,t_usec,buffer_sec,fps,"
            "bandwidth_kbps,cwnd_bytes,retx_per_sec,pacing_kbps,cc_state,"
            "access_occupancy,access_drops,isp-uplink_occupancy,"
            "isp-uplink_drops,wan-corridor_occupancy,wan-corridor_drops,"
            "server-access_occupancy,server-access_drops");
  EXPECT_EQ(csv1, file_bytes(p8));
  std::remove(p1.c_str());
  std::remove(p8.c_str());

  // Flight dumps: identical file sets with identical bytes. A lenient fps
  // predicate makes every analyzable play an "anomaly" so the set is large.
  study::FlightPredicates pred;
  pred.min_fps = 1000.0;
  const std::string d1 = ::testing::TempDir() + "/rv_flight_t1";
  const std::string d8 = ::testing::TempDir() + "/rv_flight_t8";
  std::filesystem::remove_all(d1);
  std::filesystem::remove_all(d8);
  const int n1 = study::write_flight_records(d1, single, pred);
  const int n8 = study::write_flight_records(d8, pooled, pred);
  EXPECT_GT(n1, 0);
  EXPECT_EQ(n1, n8);
  const auto dir_contents = [&](const std::string& dir) {
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      files[entry.path().filename().string()] =
          file_bytes(entry.path().string());
    }
    return files;
  };
  EXPECT_EQ(dir_contents(d1), dir_contents(d8));
  std::filesystem::remove_all(d1);
  std::filesystem::remove_all(d8);
}

TEST(TelemetryStudy, TelemetryAndProfilingDoNotPerturbResults) {
  // The serialized study (which never includes series or profile data) must
  // be byte-identical with telemetry+profiling off and on, under the same
  // cache fingerprint — sampling cannot change the sampled.
  const auto serialize = [](const study::StudyConfig& config,
                            const study::StudyResult& result) {
    const std::string path =
        ::testing::TempDir() + "/rv_telemetry_perturb.bin";
    EXPECT_TRUE(study::save_result(path, config, result));
    const std::string bytes = file_bytes(path);
    std::remove(path.c_str());
    return bytes;
  };

  auto config = telemetry_mini_config();
  config.threads = 2;
  config.tracer.telemetry.enabled = false;
  const auto off = study::run_study(config);
  auto on_config = config;
  on_config.tracer.telemetry.enabled = true;
  on_config.tracer.telemetry.interval = msec(250);
  on_config.profile = true;
  const auto on = study::run_study(on_config);

  EXPECT_EQ(study::config_fingerprint(config),
            study::config_fingerprint(on_config));
  EXPECT_EQ(serialize(config, off), serialize(config, on));

  // The profile rode along and accounts for every task exactly once.
  ASSERT_TRUE(on.profile.enabled);
  ASSERT_EQ(on.profile.workers.size(), 2u);
  const std::uint64_t plays = std::accumulate(
      on.profile.workers.begin(), on.profile.workers.end(),
      std::uint64_t{0},
      [](std::uint64_t acc, const study::WorkerProfile& w) {
        return acc + w.plays;
      });
  EXPECT_EQ(plays, on.records.size());
  EXPECT_GT(on.profile.execute_seconds, 0.0);
  EXPECT_FALSE(off.profile.enabled);
  const std::string report = study::profile_report(on.profile);
  EXPECT_NE(report.find("plan"), std::string::npos);
  EXPECT_NE(report.find("worker"), std::string::npos);
}

TEST(TelemetryStudy, ModemPlaysBottleneckOnTheAccessLink) {
  // No faults here: with healthy links, a 56k modem play's constraint is its
  // own access line (the paper's core Fig 12/13 finding).
  study::StudyConfig config;
  config.play_scale = 0.02;
  config.seed = 2001;
  config.threads = 4;
  config.tracer.telemetry.enabled = true;
  const auto result = study::run_study(config);

  const auto table = study::bottleneck_table(result);
  const auto it = table.find("56k Modem");
  ASSERT_NE(it, table.end());
  const auto& row = it->second;
  ASSERT_EQ(row.size(), world::PlayPath::kLinkCount);
  const int total = std::accumulate(row.begin(), row.end(), 0);
  ASSERT_GT(total, 0);
  EXPECT_GT(row[world::PlayPath::kAccessLink], total / 2)
      << "access=" << row[world::PlayPath::kAccessLink]
      << " of total=" << total;

  const std::string report = study::telemetry_report(result);
  EXPECT_NE(report.find("Telemetry rollup"), std::string::npos);
  EXPECT_NE(report.find("bottleneck attribution"), std::string::npos);
  EXPECT_NE(report.find("56k Modem"), std::string::npos);
}

}  // namespace
}  // namespace rv::telemetry
