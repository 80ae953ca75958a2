#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/metrics.h"
#include "study/analysis.h"
#include "study/cache.h"
#include "study/figures.h"
#include "study/study.h"
#include "transport/congestion_control.h"
#include "util/check.h"

namespace rv::study {
namespace {

// One shared scaled-down study for all tests in this file (a full study is
// minutes of CPU; 6% preserves every code path).
const StudyResult& small_study() {
  static const StudyResult result = [] {
    StudyConfig config;
    config.play_scale = 0.06;
    return run_study(config);
  }();
  return result;
}

StudyConfig small_config() {
  StudyConfig config;
  config.play_scale = 0.06;
  return config;
}

TEST(Study, PopulationAndRecordCounts) {
  const auto& result = small_study();
  EXPECT_EQ(result.users.size(), 63u);
  EXPECT_GT(result.records.size(), 100u);
  EXPECT_GE(result.records.size(), result.played().size());
  EXPECT_GE(result.played().size(), result.rated().size());
}

TEST(Study, PlayedRecordsAreAnalyzable) {
  for (const auto* r : small_study().played()) {
    EXPECT_TRUE(r->available);
    EXPECT_FALSE(r->rtsp_blocked_user);
    EXPECT_TRUE(r->stats.played_any_frame);
    EXPECT_GE(r->stats.measured_fps, 0.0);
    EXPECT_GE(r->stats.jitter_ms, 0.0);
  }
}

TEST(Study, SomeClipsUnavailable) {
  std::size_t unavailable = 0;
  for (const auto* r : small_study().accesses()) {
    unavailable += !r->available;
  }
  EXPECT_GT(unavailable, 0u);
}

TEST(Study, BothProtocolsObserved) {
  const auto groups = by_protocol(small_study().played());
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_GT(groups.at("TCP").size(), 5u);
  EXPECT_GT(groups.at("UDP").size(), 5u);
}

TEST(Study, MetricExtractorsMatchSizes) {
  const auto played = small_study().played();
  EXPECT_EQ(frame_rates(played).size(), played.size());
  EXPECT_EQ(jitters_ms(played).size(), played.size());
  EXPECT_EQ(bandwidths_kbps(played).size(), played.size());
}

TEST(Study, GroupingsPartitionRecords) {
  const auto played = small_study().played();
  for (const auto& groups :
       {by_connection(played), by_protocol(played), by_server_group(played),
        by_user_group(played), by_pc_class(played),
        by_bandwidth_bucket(played)}) {
    std::size_t total = 0;
    for (const auto& [_, recs] : groups) total += recs.size();
    EXPECT_EQ(total, played.size());
  }
}

TEST(Study, CountTablesConsistent) {
  const auto played = small_study().played();
  EXPECT_EQ(clips_played_by_country(played).total(), played.size());
  EXPECT_EQ(clips_served_by_country(played).total(), played.size());
  std::size_t us = 0;
  for (const auto* r : played) us += r->country == "US";
  EXPECT_EQ(clips_played_by_us_state(played).total(), us);
}

TEST(Study, UnavailabilityPerServerInRange) {
  const auto by_server = unavailability_by_server(small_study().accesses());
  // At 6% play-scale only a playlist prefix runs, so not every one of the 11
  // sites is necessarily visited.
  EXPECT_GE(by_server.size(), 5u);
  EXPECT_LE(by_server.size(), 11u);
  for (const auto& [name, frac] : by_server) {
    EXPECT_GE(frac, 0.0) << name;
    EXPECT_LE(frac, 0.6) << name;
  }
}

TEST(Study, FiguresRenderNonEmpty) {
  const auto& result = small_study();
  for (const auto& text :
       {fig05_clips_per_user(result), fig06_rated_per_user(result),
        fig07_user_countries(result), fig08_server_countries(result),
        fig09_us_states(result), fig10_availability(result),
        fig11_framerate_all(result), fig12_framerate_by_net(result),
        fig13_bandwidth_by_net(result),
        fig14_framerate_by_server_region(result),
        fig15_framerate_by_user_region(result), fig16_protocol_mix(result),
        fig17_framerate_by_protocol(result),
        fig18_bandwidth_by_protocol(result), fig19_framerate_by_pc(result),
        fig20_jitter_all(result), fig21_jitter_by_net(result),
        fig22_jitter_by_server_region(result),
        fig23_jitter_by_user_region(result),
        fig24_jitter_by_protocol(result), fig25_jitter_by_bandwidth(result),
        fig26_quality_all(result), fig27_quality_by_net(result),
        fig28_quality_vs_bandwidth(result), study_summary(result)}) {
    EXPECT_GT(text.size(), 50u);
    EXPECT_NE(text.find("measured"), std::string::npos);
  }
}

TEST(Study, CacheRoundTrips) {
  const auto& result = small_study();
  const StudyConfig config = small_config();
  const std::string path = ::testing::TempDir() + "/rv_cache_test.bin";
  ASSERT_TRUE(save_result(path, config, result));
  const auto loaded = load_result(path, config);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->records.size(), result.records.size());
  ASSERT_EQ(loaded->users.size(), result.users.size());
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const auto& a = result.records[i];
    const auto& b = loaded->records[i];
    EXPECT_EQ(a.user_id, b.user_id);
    EXPECT_EQ(a.country, b.country);
    EXPECT_EQ(a.clip_id, b.clip_id);
    EXPECT_EQ(a.available, b.available);
    EXPECT_EQ(a.rating, b.rating);
    EXPECT_EQ(a.stats.measured_fps, b.stats.measured_fps);
    EXPECT_EQ(a.stats.jitter_ms, b.stats.jitter_ms);
    EXPECT_EQ(a.stats.samples.size(), b.stats.samples.size());
  }
  std::remove(path.c_str());
}

TEST(Study, CacheRejectsDifferentConfig) {
  const auto& result = small_study();
  const StudyConfig config = small_config();
  const std::string path = ::testing::TempDir() + "/rv_cache_test2.bin";
  ASSERT_TRUE(save_result(path, config, result));
  StudyConfig other = config;
  other.seed = 4242;
  EXPECT_FALSE(load_result(path, other).has_value());
  std::remove(path.c_str());
}

TEST(Study, CacheHitFeedsMetricsLikeAFreshRun) {
  StudyConfig config;
  config.play_scale = 0.02;
  const std::string dir = ::testing::TempDir() + "/rv_metrics_cache";
  std::filesystem::remove_all(dir);
  // The first call misses and runs the study, the second loads its cache.
  obs::MetricsRegistry fresh, hit;
  for (obs::MetricsRegistry* reg : {&fresh, &hit}) {
    obs::install_metrics(reg);
    run_study_cached(config, /*force_run=*/false, dir);
    obs::install_metrics(nullptr);
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(fresh.value(obs::Metric::kCacheMisses), 1u);
  EXPECT_EQ(hit.value(obs::Metric::kCacheHits), 1u);
  EXPECT_EQ(hit.value(obs::Metric::kCacheMisses), 0u);
  EXPECT_GT(fresh.value(obs::Metric::kPlaysCompleted), 0u);
  for (const auto m : {obs::Metric::kPlaysCompleted,
                       obs::Metric::kUsersCompleted}) {
    EXPECT_EQ(hit.value(m), fresh.value(m)) << obs::kMetricInfo[static_cast<std::size_t>(m)].name;
  }
  EXPECT_EQ(hit.gauge(obs::MetricGauge::kUsersPlanned),
            fresh.gauge(obs::MetricGauge::kUsersPlanned));
  EXPECT_GT(hit.gauge(obs::MetricGauge::kRssKb), 0);
  for (const auto h : {obs::MetricHist::kPlayFps,
                       obs::MetricHist::kPlayBandwidthKbps}) {
    const char* name = obs::kHistInfo[static_cast<std::size_t>(h)].name;
    EXPECT_GT(fresh.hist_count(h), 0u) << name;
    EXPECT_EQ(hit.hist_count(h), fresh.hist_count(h)) << name;
    for (const double q : {0.1, 0.5, 0.9}) {
      EXPECT_EQ(hit.hist_quantile(h, q), fresh.hist_quantile(h, q))
          << name << " q" << q;
    }
  }
}

TEST(Study, CacheRejectsGarbageFile) {
  const std::string path = ::testing::TempDir() + "/rv_cache_garbage.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a cache file";
  }
  EXPECT_FALSE(load_result(path, small_config()).has_value());
  std::remove(path.c_str());
}

TEST(Study, FingerprintSensitiveToKnobs) {
  const StudyConfig base = small_config();
  StudyConfig seed = base;
  seed.seed = 77;
  StudyConfig control = base;
  control.tracer.udp_control = server::CongestionControlKind::kTfrc;
  StudyConfig scale = base;
  scale.play_scale = 0.5;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(seed));
  EXPECT_NE(config_fingerprint(base), config_fingerprint(control));
  EXPECT_NE(config_fingerprint(base), config_fingerprint(scale));
  EXPECT_EQ(config_fingerprint(base), config_fingerprint(small_config()));
  // Naming the default controller (`--cc reno`) must reuse the default
  // study's cache; any other controller is a different study.
  StudyConfig reno = base;
  reno.tracer.tcp_cc = transport::CcAlgorithm::kReno;
  StudyConfig cubic = base;
  cubic.tracer.tcp_cc = transport::CcAlgorithm::kCubic;
  EXPECT_EQ(config_fingerprint(base), config_fingerprint(reno));
  EXPECT_NE(config_fingerprint(base), config_fingerprint(cubic));
}

TEST(Study, RejectsInvalidPlayScale) {
  StudyConfig zero;
  zero.play_scale = 0.0;
  EXPECT_THROW(run_study(zero), util::CheckError);
  StudyConfig negative;
  negative.play_scale = -0.5;
  EXPECT_THROW(run_study(negative), util::CheckError);
  StudyConfig too_big;
  too_big.play_scale = 1.5;
  EXPECT_THROW(run_study(too_big), util::CheckError);
}

TEST(Study, RejectsNegativeThreads) {
  StudyConfig config;
  config.play_scale = 0.02;
  config.threads = -1;
  EXPECT_THROW(run_study(config), util::CheckError);
}

TEST(Study, PlayFailureInAWorkerReachesTheCaller) {
  // A zero cross-traffic packet size fails a check inside run_play. On a
  // pooled worker thread that must surface as the CheckError, not as
  // std::terminate.
  StudyConfig config;
  config.play_scale = 0.02;
  config.tracer.path.cross_packet_bytes = 0;
  for (const int threads : {1, 4}) {
    config.threads = threads;
    EXPECT_THROW(run_study(config), util::CheckError) << "threads=" << threads;
  }
}

TEST(Study, FingerprintSensitiveToFaultKnobs) {
  const StudyConfig base = small_config();
  StudyConfig enabled = base;
  enabled.tracer.faults.enabled = true;
  StudyConfig scaled = base;
  scaled.tracer.faults.enabled = true;
  scaled.tracer.faults.outage_scale = 2.0;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(enabled));
  EXPECT_NE(config_fingerprint(enabled), config_fingerprint(scaled));
}

TEST(Study, MechanisticUnavailabilityModeRuns) {
  StudyConfig config;
  config.play_scale = 0.03;
  config.tracer.faults.enabled = true;
  config.tracer.faults.mechanistic_unavailability = true;
  const auto result = run_study(config);
  std::size_t unavailable = 0;
  std::size_t played = 0;
  for (const auto* r : result.accesses()) {
    unavailable += !r->available;
    played += r->analyzable();
  }
  // Outage windows must both bite (some accesses land inside one) and spare
  // the bulk of the campaign.
  EXPECT_GT(unavailable, 0u);
  EXPECT_GT(played, 20u);
}

TEST(Study, DeterministicAcrossRuns) {
  StudyConfig config;
  config.play_scale = 0.02;
  const auto a = run_study(config);
  const auto b = run_study(config);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].stats.measured_fps,
              b.records[i].stats.measured_fps);
    EXPECT_EQ(a.records[i].rating, b.records[i].rating);
  }
}

}  // namespace
}  // namespace rv::study
