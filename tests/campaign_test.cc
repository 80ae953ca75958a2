#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "study/cache.h"
#include "study/campaign.h"
#include "study/spill.h"
#include "study/study.h"
#include "util/check.h"
#include "util/units.h"

namespace rv::study {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

// Short plays and a reduced playlist so each campaign run stays fast; the
// equivalence properties under test are scale-independent.
StudyConfig quick_config() {
  StudyConfig config;
  config.threads = 2;
  config.play_scale = 0.05;
  config.tracer.watch_duration = seconds_to_sim(2.0);
  return config;
}

// A synthetic analyzable record for pure-rollup tests (no simulation).
tracer::TraceRecord synthetic_record(std::uint64_t i) {
  tracer::TraceRecord rec;
  rec.user_id = static_cast<int>(i);
  rec.country = "US";
  rec.pc_class = "Pentium II / 128-256";
  rec.server_name = "east-1";
  rec.server_country = "US";
  rec.available = true;
  rec.stats.session_established = true;
  rec.stats.played_any_frame = true;
  rec.stats.measured_bandwidth = 1e5 + static_cast<double>(i);
  rec.stats.measured_fps = 15.0;
  rec.stats.jitter_ms = 10.0 + static_cast<double>(i % 50);
  rec.stats.preroll_seconds = 2.0;
  rec.stats.play_seconds = 30.0;
  rec.stats.frames_played = 450;
  rec.rating = static_cast<double>(i % 11);
  return rec;
}

TEST(Campaign, ScaleOneRollupMatchesFoldingRunStudy) {
  const StudyConfig study_cfg = quick_config();
  const StudyResult baseline = run_study(study_cfg);

  CampaignRollup manual;
  manual.user_count = 63;  // one population replica
  for (const auto& rec : baseline.records) manual.fold(rec);

  CampaignConfig campaign_cfg;
  campaign_cfg.study = study_cfg;
  campaign_cfg.plays_scale = 1;
  const CampaignResult result = run_campaign(campaign_cfg);

  EXPECT_EQ(result.users, 63u);
  EXPECT_EQ(result.plays, baseline.records.size());
  // The campaign's streaming chunked execution must reproduce the in-memory
  // study bit-for-bit: identical serialized rollup, identical report.
  EXPECT_EQ(result.rollup.serialize(), manual.serialize());
  EXPECT_EQ(result.rollup.render(), manual.render());
}

TEST(Campaign, ChunkSizeAndThreadsDoNotChangeTheRollup) {
  CampaignConfig a;
  a.study = quick_config();
  a.plays_scale = 2;
  CampaignConfig b = a;
  b.chunk_users = 17;   // ragged chunks, crossing replica boundaries
  b.study.threads = 1;
  const std::string bytes_a = run_campaign(a).rollup.serialize();
  const std::string bytes_b = run_campaign(b).rollup.serialize();
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(Campaign, ShardedRunMergesToSingleProcessBytes) {
  CampaignConfig whole;
  whole.study = quick_config();
  whole.plays_scale = 2;
  whole.spill_dir = temp_path("campaign_whole");
  const CampaignResult single = run_campaign(whole);
  EXPECT_EQ(single.users, 126u);
  EXPECT_GT(single.plays, 0u);

  CampaignRollup merged;
  std::vector<std::string> shard_spills;
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    CampaignConfig part = whole;
    part.shard_index = shard;
    part.shard_count = 2;
    part.spill_dir = temp_path("campaign_shard" + std::to_string(shard));
    const CampaignResult result = run_campaign(part);
    EXPECT_EQ(result.users, 63u);
    shard_spills.push_back(result.spill_path);
    std::string error;
    if (shard == 0) {
      merged = result.rollup;
    } else {
      ASSERT_TRUE(merged.merge(result.rollup, &error)) << error;
    }
  }

  EXPECT_EQ(merged.serialize(), single.rollup.serialize());
  EXPECT_EQ(merged.render(), single.rollup.render());

  const std::string merged_spill = temp_path("campaign_merged.spill");
  std::string error;
  ASSERT_TRUE(concat_spills(shard_spills, merged_spill, &error)) << error;
  EXPECT_EQ(read_file(merged_spill), read_file(single.spill_path));
}

TEST(Campaign, MergeRejectsNonContiguousShards) {
  CampaignRollup first;
  first.user_first = 0;
  first.user_count = 63;
  for (std::uint64_t i = 0; i < 10; ++i) first.fold(synthetic_record(i));

  CampaignRollup gap;
  gap.user_first = 70;  // hole at [63, 70)
  gap.user_count = 63;
  std::string error;
  CampaignRollup m = first;
  EXPECT_FALSE(m.merge(gap, &error));
  EXPECT_FALSE(error.empty());

  CampaignRollup duplicate;
  duplicate.user_first = 0;  // same range again
  duplicate.user_count = 63;
  error.clear();
  m = first;
  EXPECT_FALSE(m.merge(duplicate, &error));
  EXPECT_FALSE(error.empty());

  CampaignRollup next;
  next.user_first = 63;  // exactly adjacent: accepted
  next.user_count = 63;
  for (std::uint64_t i = 0; i < 5; ++i) next.fold(synthetic_record(63 + i));
  m = first;
  ASSERT_TRUE(m.merge(next, &error)) << error;
  EXPECT_EQ(m.user_first, 0u);
  EXPECT_EQ(m.user_count, 126u);
  EXPECT_EQ(m.records, 15u);
  // Out-of-order merge (successor first) is also a contiguity error.
  error.clear();
  CampaignRollup reversed = next;
  EXPECT_FALSE(reversed.merge(first, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Campaign, SerializationRoundTripsAndRejectsCorruption) {
  CampaignRollup rollup;
  rollup.user_first = 63;
  rollup.user_count = 63;
  for (std::uint64_t i = 0; i < 200; ++i) {
    tracer::TraceRecord rec = synthetic_record(i);
    if (i % 13 == 0) rec.available = false;
    if (i % 29 == 0) rec.rtsp_blocked_user = true;
    rollup.fold(rec);
  }

  const std::string bytes = rollup.serialize();
  CampaignRollup back;
  std::string error;
  ASSERT_TRUE(CampaignRollup::parse(bytes, &back, &error)) << error;
  EXPECT_EQ(back.serialize(), bytes);
  EXPECT_EQ(back.render(), rollup.render());
  EXPECT_EQ(back.records, rollup.records);
  EXPECT_EQ(back.sum_rating_u, rollup.sum_rating_u);

  CampaignRollup out;
  EXPECT_FALSE(CampaignRollup::parse("", &out, &error));
  EXPECT_FALSE(CampaignRollup::parse("RVRUgarbage", &out, &error));
  EXPECT_FALSE(
      CampaignRollup::parse(bytes.substr(0, bytes.size() / 2), &out, &error));
  EXPECT_FALSE(error.empty());

  // save/load round-trip through a file.
  const std::string path = temp_path("rollup.bin");
  ASSERT_TRUE(rollup.save(path));
  CampaignRollup loaded;
  ASSERT_TRUE(CampaignRollup::load(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.serialize(), bytes);
  EXPECT_FALSE(CampaignRollup::load(temp_path("missing.bin"), &loaded, &error));
}

TEST(Campaign, RunCampaignValidatesConfig) {
  CampaignConfig config;
  config.study = quick_config();
  config.plays_scale = 0;
  EXPECT_THROW(run_campaign(config), util::CheckError);

  config.plays_scale = 1;
  config.shard_count = 0;
  EXPECT_THROW(run_campaign(config), util::CheckError);

  config.shard_count = 2;
  config.shard_index = 2;  // must be < shard_count
  EXPECT_THROW(run_campaign(config), util::CheckError);

  config.shard_index = 0;
  config.chunk_users = 0;
  EXPECT_THROW(run_campaign(config), util::CheckError);
}

TEST(Campaign, RunCampaignRejectsNegativeThreadsLikeRunStudy) {
  StudyConfig study = quick_config();
  study.threads = -1;
  EXPECT_THROW(run_study(study), util::CheckError);
  CampaignConfig config;
  config.study = study;
  EXPECT_THROW(run_campaign(config), util::CheckError);
}

TEST(Campaign, ProfiledCampaignFillsOneWorkerProfilePerWorker) {
  CampaignConfig config;
  config.study = quick_config();
  config.study.profile = true;
  config.chunk_users = 20;  // several chunks accumulate into one profile
  const CampaignResult res = run_campaign(config);
  ASSERT_TRUE(res.profile.enabled);
  ASSERT_EQ(res.profile.workers.size(),
            static_cast<std::size_t>(res.threads));
  std::uint64_t plays = 0;
  for (const WorkerProfile& w : res.profile.workers) {
    plays += w.plays;
    EXPECT_GE(w.idle_seconds, 0.0);
  }
  EXPECT_EQ(plays, res.plays);
  EXPECT_GT(res.profile.execute_seconds, 0.0);
  EXPECT_LE(res.profile.execute_seconds, res.execute_seconds);

  config.study.profile = false;
  EXPECT_FALSE(run_campaign(config).profile.enabled);
}

TEST(Campaign, MetricsRegistryDoesNotPerturbOutputs) {
  // The status exporter serves a process-wide MetricsRegistry that the
  // chunk loop feeds. Installing one must leave every deterministic output
  // byte-identical: campaign rollup and spill, and the study cache.
  CampaignConfig config;
  config.study = quick_config();
  config.study.play_scale = 0.02;
  std::string rollup[2], spill[2], cache[2];
  for (const int on : {0, 1}) {
    obs::MetricsRegistry registry;
    if (on == 1) obs::install_metrics(&registry);
    const std::string tag = "campaign_metrics" + std::to_string(on);
    config.spill_dir = temp_path(tag);
    const CampaignResult res = run_campaign(config);
    rollup[on] = read_file(res.rollup_path);
    spill[on] = read_file(res.spill_path);
    if (on == 1) {
      // The campaign fed what /metrics and /progress serve.
      EXPECT_EQ(registry.value(obs::Metric::kPlaysCompleted), res.plays);
      EXPECT_EQ(registry.value(obs::Metric::kUsersCompleted), res.users);
      EXPECT_EQ(registry.value(obs::Metric::kSpillBytesWritten),
                spill[on].size());
      EXPECT_GT(registry.hist_count(obs::MetricHist::kPlayFps), 0u);
    }
    const std::string cache_path = temp_path(tag + ".cache");
    EXPECT_TRUE(save_result(cache_path, config.study, run_study(config.study)));
    cache[on] = read_file(cache_path);
    obs::install_metrics(nullptr);
  }
  EXPECT_FALSE(rollup[0].empty());
  EXPECT_FALSE(spill[0].empty());
  EXPECT_FALSE(cache[0].empty());
  EXPECT_EQ(rollup[0], rollup[1]);
  EXPECT_EQ(spill[0], spill[1]);
  EXPECT_EQ(cache[0], cache[1]);
}

TEST(Campaign, PeakRssIsReadable) {
  // Linux-only value, but this suite runs on Linux: VmHWM of a live test
  // process is always at least a megabyte.
  EXPECT_GT(peak_rss_kb(), 1024u);
}

}  // namespace
}  // namespace rv::study
