#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "media/catalog.h"
#include "media/clip.h"
#include "media/codec.h"
#include "media/frame_schedule.h"
#include "media/packetizer.h"
#include "util/rng.h"
#include "world/servers.h"

namespace rv::media {
namespace {

std::vector<EncodingLevel> test_levels() {
  const auto& targets = target_audiences();
  return {make_level(targets[0], AudioContent::kVoice),
          make_level(targets[1], AudioContent::kVoice),
          make_level(targets[5], AudioContent::kVoice)};
}

Clip test_clip(std::uint64_t seed = 99) {
  return Clip(7, "test", ClipKind::kNews, sec(120), test_levels(), seed);
}

TEST(Codec, AudioShareMatchesPaperExample) {
  // §II.C: a 20 Kbps clip with a 5 Kbps voice codec leaves 15 Kbps of video.
  const auto codec = audio_codec_for(AudioContent::kVoice, kbps(20));
  EXPECT_DOUBLE_EQ(codec.rate, kbps(5));
  // An 11 Kbps music codec leaves only 9 Kbps.
  const auto music = audio_codec_for(AudioContent::kMusic, kbps(20));
  EXPECT_DOUBLE_EQ(music.rate, kbps(11));
}

TEST(Codec, LevelsHavePositiveVideoShare) {
  for (const auto& target : target_audiences()) {
    for (const AudioContent c : {AudioContent::kVoice, AudioContent::kMusic,
                                 AudioContent::kStereoMusic}) {
      const auto level = make_level(target, c);
      EXPECT_GT(level.video_bandwidth(), 0.0) << target.name;
      EXPECT_GT(level.encoded_fps, 0.0);
      EXPECT_GE(level.keyframe_interval, 4);
    }
  }
}

TEST(Codec, TargetAudiencesAscend) {
  const auto& targets = target_audiences();
  ASSERT_EQ(targets.size(), 8u);
  for (std::size_t i = 1; i < targets.size(); ++i) {
    EXPECT_GT(targets[i].total_bandwidth, targets[i - 1].total_bandwidth);
  }
}

TEST(Clip, LevelsSortedAndSelectable) {
  const Clip clip = test_clip();
  ASSERT_EQ(clip.levels().size(), 3u);
  EXPECT_TRUE(clip.is_surestream());
  EXPECT_LT(clip.level(0).total_bandwidth, clip.level(2).total_bandwidth);
  // Plenty of bandwidth → top level.
  EXPECT_EQ(clip.best_level_for(mbps(1)), 2u);
  // 40 Kbps fits the 34K level but not 225K.
  EXPECT_EQ(clip.best_level_for(kbps(40)), 1u);
  // Below even the lowest level → still level 0.
  EXPECT_EQ(clip.best_level_for(kbps(5)), 0u);
}

TEST(Clip, ScenesTileTheDuration) {
  const Clip clip = test_clip();
  SimTime t = 0;
  for (const auto& scene : clip.scenes()) {
    EXPECT_EQ(scene.start, t);
    EXPECT_GT(scene.duration, 0);
    EXPECT_GT(scene.action, 0.0);
    EXPECT_LE(scene.action, 1.0);
    t += scene.duration;
  }
  EXPECT_EQ(t, clip.duration());
}

TEST(Clip, SceneStructureDeterministic) {
  const Clip a = test_clip(42);
  const Clip b = test_clip(42);
  ASSERT_EQ(a.scenes().size(), b.scenes().size());
  for (std::size_t i = 0; i < a.scenes().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.scenes()[i].action, b.scenes()[i].action);
  }
  const Clip c = test_clip(43);
  // Different seed ⇒ different structure (overwhelmingly likely).
  EXPECT_TRUE(a.scenes().size() != c.scenes().size() ||
              a.scenes()[0].action != c.scenes()[0].action);
}

TEST(FrameSchedule, TimestampsMonotoneAndBounded) {
  const Clip clip = test_clip();
  for (std::size_t li = 0; li < clip.levels().size(); ++li) {
    const auto sched = FrameSchedule::generate(clip, li);
    ASSERT_GT(sched.size(), 0u);
    SimTime prev = -1;
    for (const auto& f : sched.frames()) {
      EXPECT_GT(f.pts, prev);
      EXPECT_LT(f.pts, clip.duration());
      EXPECT_GT(f.bytes, 0);
      prev = f.pts;
    }
  }
}

TEST(FrameSchedule, AverageRateTracksLevel) {
  const Clip clip = test_clip();
  for (std::size_t li = 0; li < clip.levels().size(); ++li) {
    const auto sched = FrameSchedule::generate(clip, li);
    const auto& level = clip.level(li);
    // Encoded bandwidth within 20% of the level's video budget.
    EXPECT_NEAR(sched.average_video_bandwidth(), level.video_bandwidth(),
                level.video_bandwidth() * 0.20)
        << "level " << li;
    // Scene action reduces fps below the cap but never above it.
    EXPECT_LE(sched.average_fps(), level.encoded_fps + 0.01);
    EXPECT_GT(sched.average_fps(), level.encoded_fps * 0.35);
  }
}

TEST(FrameSchedule, KeyframesPresentAndLarger) {
  const Clip clip = test_clip();
  const auto sched = FrameSchedule::generate(clip, 2);
  double key_sum = 0.0;
  double delta_sum = 0.0;
  int keys = 0;
  int deltas = 0;
  for (const auto& f : sched.frames()) {
    if (f.keyframe) {
      key_sum += f.bytes;
      ++keys;
    } else {
      delta_sum += f.bytes;
      ++deltas;
    }
  }
  ASSERT_GT(keys, 1);
  ASSERT_GT(deltas, 0);
  EXPECT_GT(key_sum / keys, 2.0 * delta_sum / deltas);
}

TEST(FrameSchedule, FirstFrameAtBinarySearch) {
  const Clip clip = test_clip();
  const auto sched = FrameSchedule::generate(clip, 0);
  EXPECT_EQ(sched.first_frame_at(0), 0u);
  EXPECT_EQ(sched.first_frame_at(clip.duration() + 1), sched.size());
  const auto mid = sched.first_frame_at(sec(60));
  ASSERT_LT(mid, sched.size());
  EXPECT_GE(sched.frame(mid).pts, sec(60));
  if (mid > 0) {
    EXPECT_LT(sched.frame(mid - 1).pts, sec(60));
  }
}

TEST(FrameSchedule, DeterministicPerClipAndLevel) {
  const Clip clip = test_clip(7);
  const auto a = FrameSchedule::generate(clip, 1);
  const auto b = FrameSchedule::generate(clip, 1);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
}

// FrameSchedule::generate as it was before on-demand generation: the whole
// clip's frames in one loop. The reference the on-demand schedule must
// match frame for frame.
std::vector<VideoFrame> generate_whole_clip(const Clip& clip,
                                            std::size_t level_index) {
  constexpr double kKeyframeFactor = 3.0;
  constexpr double kSizeSigma = 0.30;
  const EncodingLevel& level = clip.level(level_index);
  std::vector<VideoFrame> frames;
  util::Rng rng(clip.seed() ^ (0xF00Du + level_index));
  const double lognormal_mean_fix = std::exp(-kSizeSigma * kSizeSigma / 2.0);
  const int kf_interval = std::max(level.keyframe_interval, 2);
  const double kf_mean =
      (static_cast<double>(kf_interval - 1) + kKeyframeFactor) /
      static_cast<double>(kf_interval);
  SimTime t = 0;
  std::int32_t index = 0;
  while (t < clip.duration()) {
    const double action = clip.action_at(t);
    const double fps = std::max(2.0, level.encoded_fps * action);
    const SimTime interval = seconds_to_sim(1.0 / fps);
    VideoFrame frame;
    frame.index = index;
    frame.pts = t;
    frame.keyframe = (index % kf_interval) == 0;
    const double base_bytes =
        level.video_bandwidth() * to_seconds(interval) / 8.0 / kf_mean;
    const double factor = (frame.keyframe ? kKeyframeFactor : 1.0) *
                          rng.lognormal(0.0, kSizeSigma) * lognormal_mean_fix;
    frame.bytes =
        std::max<std::int32_t>(32, static_cast<std::int32_t>(
                                       std::round(base_bytes * factor)));
    frames.push_back(frame);
    t += interval;
    ++index;
  }
  return frames;
}

bool same_frame(const VideoFrame& a, const VideoFrame& b) {
  return a.index == b.index && a.pts == b.pts && a.bytes == b.bytes &&
         a.keyframe == b.keyframe;
}

// Every frame of every level of every clip in the study's catalog, read on
// demand the way a sender reads it (in order, in runs, with first_frame_at
// jumps at random times, as a level switch does), is the frame the whole-
// clip generator made; and first_frame_at agrees with a search of the whole
// clip at random times on a fresh schedule.
TEST(FrameSchedule, OnDemandMatchesWholeClipGeneration) {
  std::vector<SiteProfile> profiles;
  for (const auto& site : world::server_sites()) {
    profiles.push_back(site.profile);
  }
  const Catalog catalog(CatalogSpec{}, profiles);
  ASSERT_EQ(catalog.size(), 98u);
  util::Rng script(2001);
  std::size_t frames_checked = 0;
  for (const Clip& clip : catalog.clips()) {
    for (std::size_t li = 0; li < clip.levels().size(); ++li) {
      SCOPED_TRACE(clip.title() + " level " + std::to_string(li));
      const auto whole = generate_whole_clip(clip, li);
      const auto search = [&whole](SimTime t) {
        return static_cast<std::size_t>(
            std::lower_bound(whole.begin(), whole.end(), t,
                             [](const VideoFrame& f, SimTime value) {
                               return f.pts < value;
                             }) -
            whole.begin());
      };

      const auto sched = FrameSchedule::generate(clip, li);
      std::size_t i = 0;
      while (const VideoFrame* frame = sched.find(i)) {
        ASSERT_LT(i, whole.size());
        ASSERT_TRUE(same_frame(*frame, whole[i])) << "frame " << i;
        ++frames_checked;
        ++i;
        if (script.bernoulli(0.01)) {
          // Jump, forward or back, to the first frame at a random time.
          const auto t = static_cast<SimTime>(
              script.uniform(0.0, static_cast<double>(clip.duration()) + 1e6));
          i = sched.first_frame_at(t);
          ASSERT_EQ(i, search(t)) << "t " << t;
        }
      }
      ASSERT_EQ(sched.find(whole.size()), nullptr);
      ASSERT_EQ(sched.size(), whole.size());
      EXPECT_THROW(sched.frame(whole.size()), std::out_of_range);

      for (int k = 0; k < 3; ++k) {
        const auto fresh = FrameSchedule::generate(clip, li);
        const auto t = static_cast<SimTime>(
            script.uniform(0.0, static_cast<double>(clip.duration()) * 1.1));
        ASSERT_EQ(fresh.first_frame_at(t), search(t)) << "t " << t;
        const auto frames = fresh.frames();
        ASSERT_EQ(frames.size(), whole.size());
        for (std::size_t f = 0; f < frames.size(); ++f) {
          ASSERT_TRUE(same_frame(frames[f], whole[f])) << "frame " << f;
        }
      }
    }
  }
  EXPECT_GT(frames_checked, 1'000'000u);
}

TEST(Packetizer, FragmentsCoverFrameExactly) {
  VideoFrame frame;
  frame.index = 5;
  frame.pts = sec(1);
  frame.bytes = 2500;
  frame.keyframe = true;
  std::uint32_t seq = 10;
  const auto frags = packetize_frame(frame, 3, 1, 1000, seq);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_EQ(seq, 13u);
  std::int32_t total = 0;
  for (std::size_t i = 0; i < frags.size(); ++i) {
    EXPECT_EQ(frags[i]->frag_index, static_cast<std::int32_t>(i));
    EXPECT_EQ(frags[i]->frag_count, 3);
    EXPECT_EQ(frags[i]->frame_index, 5);
    EXPECT_TRUE(frags[i]->keyframe);
    EXPECT_LE(frags[i]->payload_bytes, 1000);
    total += frags[i]->payload_bytes;
  }
  EXPECT_EQ(total, 2500);
}

TEST(Assembler, CompletesOnLastFragment) {
  VideoFrame frame;
  frame.index = 1;
  frame.pts = sec(2);
  frame.bytes = 1800;
  std::uint32_t seq = 0;
  const auto frags = packetize_frame(frame, 1, 0, 1000, seq);
  ASSERT_EQ(frags.size(), 2u);
  FrameAssembler asm_;
  EXPECT_FALSE(asm_.add(*frags[0]).has_value());
  const auto done = asm_.add(*frags[1]);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->frame_index, 1);
  EXPECT_EQ(done->bytes, 1800);
  EXPECT_EQ(asm_.partial_frames(), 0u);
}

TEST(Assembler, ToleratesDuplicatesAndReordering) {
  VideoFrame frame;
  frame.index = 2;
  frame.pts = sec(3);
  frame.bytes = 2800;
  std::uint32_t seq = 0;
  const auto frags = packetize_frame(frame, 1, 0, 1000, seq);
  ASSERT_EQ(frags.size(), 3u);
  FrameAssembler asm_;
  EXPECT_FALSE(asm_.add(*frags[2]).has_value());
  EXPECT_FALSE(asm_.add(*frags[2]).has_value());  // duplicate
  EXPECT_FALSE(asm_.add(*frags[0]).has_value());
  const auto done = asm_.add(*frags[1]);
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(asm_.add(*frags[1]).has_value());  // after completion
}

TEST(Assembler, DiscardsStalePartials) {
  VideoFrame f1;
  f1.index = 1;
  f1.pts = sec(1);
  f1.bytes = 1500;
  VideoFrame f2;
  f2.index = 2;
  f2.pts = sec(5);
  f2.bytes = 1500;
  std::uint32_t seq = 0;
  const auto a = packetize_frame(f1, 1, 0, 1000, seq);
  const auto b = packetize_frame(f2, 1, 0, 1000, seq);
  FrameAssembler asm_;
  asm_.add(*a[0]);
  asm_.add(*b[0]);
  EXPECT_EQ(asm_.partial_frames(), 2u);
  EXPECT_EQ(asm_.discard_before(sec(2)), 1u);
  EXPECT_EQ(asm_.partial_frames(), 1u);
}

TEST(LossMonitor, ComputesIntervalLoss) {
  LossMonitor mon;
  mon.on_packet(1);
  mon.on_packet(2);
  mon.on_packet(4);  // 3 lost
  auto rep = mon.take();
  EXPECT_EQ(rep.received, 3);
  EXPECT_EQ(rep.expected, 4);
  EXPECT_NEAR(rep.loss_fraction(), 0.25, 1e-9);
  // Next interval starts clean.
  mon.on_packet(5);
  mon.on_packet(6);
  rep = mon.take();
  EXPECT_EQ(rep.received, 2);
  EXPECT_EQ(rep.expected, 2);
  EXPECT_DOUBLE_EQ(rep.loss_fraction(), 0.0);
  EXPECT_EQ(mon.total_received(), 5);
}

TEST(LossMonitor, EmptyIntervalIsLossless) {
  LossMonitor mon;
  const auto rep = mon.take();
  EXPECT_EQ(rep.received, 0);
  EXPECT_EQ(rep.expected, 0);
  EXPECT_DOUBLE_EQ(rep.loss_fraction(), 0.0);
}

TEST(Catalog, BuildsPlaylistOfRequestedSize) {
  CatalogSpec spec;
  std::vector<SiteProfile> profiles(11, SiteProfile::kNewsBroadcaster);
  profiles[3] = SiteProfile::kSportsNetwork;
  profiles[7] = SiteProfile::kEntertainment;
  const Catalog catalog(spec, profiles);
  EXPECT_EQ(catalog.size(), 98u);
  std::set<std::uint32_t> ids;
  for (const auto& clip : catalog.clips()) {
    ids.insert(clip.id());
    EXPECT_FALSE(clip.levels().empty());
    EXPECT_GE(clip.duration(), sec(60));
  }
  EXPECT_EQ(ids.size(), 98u);  // unique ids
}

TEST(Catalog, SiteMappingConsistent) {
  CatalogSpec spec;
  std::vector<SiteProfile> profiles(11, SiteProfile::kEntertainment);
  const Catalog catalog(spec, profiles);
  std::size_t total = 0;
  for (std::size_t site = 0; site < profiles.size(); ++site) {
    for (const std::size_t idx : catalog.clips_of_site(site)) {
      EXPECT_EQ(Catalog::site_of(catalog.clip(idx).id()), site);
      ++total;
    }
  }
  EXPECT_EQ(total, catalog.size());
}

TEST(Catalog, DeterministicAcrossInstances) {
  CatalogSpec spec;
  std::vector<SiteProfile> profiles(11, SiteProfile::kNewsBroadcaster);
  const Catalog a(spec, profiles);
  const Catalog b(spec, profiles);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.clip(i).title(), b.clip(i).title());
    EXPECT_EQ(a.clip(i).seed(), b.clip(i).seed());
    EXPECT_EQ(a.clip(i).levels().size(), b.clip(i).levels().size());
  }
}

// Property: every clip in a catalog generates valid schedules at every level.
class CatalogScheduleProperty : public ::testing::TestWithParam<int> {};

TEST_P(CatalogScheduleProperty, AllSchedulesValid) {
  CatalogSpec spec;
  spec.seed = static_cast<std::uint64_t>(GetParam());
  std::vector<SiteProfile> profiles = {
      SiteProfile::kNewsBroadcaster, SiteProfile::kSportsNetwork,
      SiteProfile::kEntertainment};
  spec.clips_per_site = 4;
  spec.playlist_size = 12;
  const Catalog catalog(spec, profiles);
  for (const auto& clip : catalog.clips()) {
    for (std::size_t li = 0; li < clip.levels().size(); ++li) {
      const auto sched = FrameSchedule::generate(clip, li);
      EXPECT_GT(sched.size(), 0u);
      EXPECT_GT(sched.total_bytes(), 0);
      EXPECT_LE(sched.average_fps(), clip.level(li).encoded_fps + 0.01);
      // No frame should individually exceed a second of the level's budget
      // by more than the keyframe factor allows (sanity bound).
      for (const auto& f : sched.frames()) {
        EXPECT_LT(f.bytes,
                  clip.level(li).total_bandwidth / 8.0 * 3.0 + 4096.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatalogScheduleProperty,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace rv::media
