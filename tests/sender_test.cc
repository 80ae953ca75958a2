#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "media/codec.h"
#include "server/stream_sender.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace rv::server {
namespace {

// Records everything the sender pushes; emulates a configurable TCP backlog.
class FakeChannel : public MediaChannel {
 public:
  void send_media(std::shared_ptr<const media::MediaPacketMeta> meta,
                  std::int32_t bytes) override {
    sent.push_back(std::move(meta));
    total_bytes += bytes;
  }
  std::int64_t backlog_bytes() const override { return backlog; }
  bool reliable() const override { return reliable_flag; }

  std::vector<std::shared_ptr<const media::MediaPacketMeta>> sent;
  std::int64_t total_bytes = 0;
  std::int64_t backlog = 0;
  bool reliable_flag = false;
};

media::Clip surestream_clip() {
  const auto& targets = media::target_audiences();
  std::vector<media::EncodingLevel> levels = {
      make_level(targets[1], media::AudioContent::kVoice),   // 34K
      make_level(targets[3], media::AudioContent::kVoice),   // 80K
      make_level(targets[5], media::AudioContent::kVoice),   // 225K
  };
  return media::Clip(5, "sender-test", media::ClipKind::kNews, sec(60),
                     std::move(levels), 77);
}

StreamSenderConfig quick_config() {
  StreamSenderConfig cfg;
  cfg.preroll_media_seconds = 4.0;
  return cfg;
}

TEST(StreamSender, PacesAtRoughlyLevelRate) {
  sim::Simulator sim;
  const auto clip = surestream_clip();
  FakeChannel channel;
  StreamSender sender(sim, clip, 2, channel, nullptr, quick_config(),
                      util::Rng(1));
  sender.start();
  sim.run_until(sec(20));
  sender.stop();
  // 225 Kbps level: ~28 KB/s; the preroll burst runs ~1.8x for 4 media-sec.
  const double rate_bps = static_cast<double>(channel.total_bytes) * 8 / 20.0;
  EXPECT_GT(rate_bps, kbps(180));
  EXPECT_LT(rate_bps, kbps(330));
  EXPECT_GT(channel.sent.size(), 100u);
}

TEST(StreamSender, SendsAudioAndVideoInterleaved) {
  sim::Simulator sim;
  const auto clip = surestream_clip();
  FakeChannel channel;
  StreamSender sender(sim, clip, 0, channel, nullptr, quick_config(),
                      util::Rng(1));
  sender.start();
  sim.run_until(sec(10));
  sender.stop();
  int audio = 0;
  int video = 0;
  for (const auto& m : channel.sent) {
    audio += m->kind == media::MediaKind::kAudio;
    video += m->kind == media::MediaKind::kVideo;
  }
  EXPECT_GT(audio, 10);
  EXPECT_GT(video, 30);
}

TEST(StreamSender, SequenceNumbersStrictlyIncrease) {
  sim::Simulator sim;
  const auto clip = surestream_clip();
  FakeChannel channel;
  StreamSender sender(sim, clip, 1, channel, nullptr, quick_config(),
                      util::Rng(1));
  sender.start();
  sim.run_until(sec(15));
  sender.stop();
  for (std::size_t i = 1; i < channel.sent.size(); ++i) {
    EXPECT_EQ(channel.sent[i]->seq, channel.sent[i - 1]->seq + 1);
  }
}

TEST(StreamSender, EndOfStreamAfterWholeClip) {
  sim::Simulator sim;
  const auto& targets = media::target_audiences();
  std::vector<media::EncodingLevel> levels = {
      make_level(targets[0], media::AudioContent::kVoice)};
  const media::Clip clip(1, "short", media::ClipKind::kNews, sec(5),
                         std::move(levels), 3);
  FakeChannel channel;
  channel.reliable_flag = true;
  StreamSender sender(sim, clip, 0, channel, nullptr, quick_config(),
                      util::Rng(1));
  sender.start();
  sim.run_until(sec(30));
  EXPECT_TRUE(sender.stopped());
  int eos = 0;
  for (const auto& m : channel.sent) {
    eos += m->kind == media::MediaKind::kEndOfStream;
  }
  EXPECT_EQ(eos, 1);  // reliable channel: single EOS
}

TEST(StreamSender, UnreliableChannelRepeatsEos) {
  sim::Simulator sim;
  const auto& targets = media::target_audiences();
  std::vector<media::EncodingLevel> levels = {
      make_level(targets[0], media::AudioContent::kVoice)};
  const media::Clip clip(1, "short", media::ClipKind::kNews, sec(5),
                         std::move(levels), 3);
  FakeChannel channel;  // reliable_flag = false
  StreamSender sender(sim, clip, 0, channel, nullptr, quick_config(),
                      util::Rng(1));
  sender.start();
  sim.run_until(sec(30));
  int eos = 0;
  for (const auto& m : channel.sent) {
    eos += m->kind == media::MediaKind::kEndOfStream;
  }
  EXPECT_EQ(eos, 3);
}

TEST(StreamSender, ControllerDrivesLevelDown) {
  sim::Simulator sim;
  const auto clip = surestream_clip();
  FakeChannel channel;
  transport::AimdConfig aimd;
  aimd.initial_rate = kbps(250);
  auto controller = std::make_unique<transport::AimdRateController>(aimd);
  StreamSender sender(sim, clip, 2, channel,
                      std::move(controller), quick_config(), util::Rng(1));
  sender.start();
  sim.run_until(sec(2));
  EXPECT_EQ(sender.active_level(), 2u);
  // Persistent loss reports crush the allowed rate.
  media::FeedbackMeta feedback;
  feedback.loss_fraction = 0.3;
  feedback.receive_rate = kbps(40);
  for (int i = 0; i < 10; ++i) sender.on_feedback(feedback);
  EXPECT_EQ(sender.active_level(), 0u);
  EXPECT_GT(sender.level_switches(), 0u);
}

TEST(StreamSender, ControllerDrivesLevelBackUp) {
  sim::Simulator sim;
  const auto clip = surestream_clip();
  FakeChannel channel;
  transport::AimdConfig aimd;
  aimd.initial_rate = kbps(30);
  aimd.increase_per_report = kbps(40);
  auto controller = std::make_unique<transport::AimdRateController>(aimd);
  StreamSender sender(sim, clip, 0, channel,
                      std::move(controller), quick_config(), util::Rng(1));
  sender.start();
  media::FeedbackMeta clean;
  clean.loss_fraction = 0.0;
  clean.receive_rate = kbps(300);
  for (int i = 0; i < 12; ++i) sender.on_feedback(clean);
  EXPECT_GT(sender.active_level(), 0u);
}

TEST(StreamSender, SvtThinsWhenRateBelowFloorLevel) {
  sim::Simulator sim;
  const auto clip = surestream_clip();
  FakeChannel channel;
  transport::AimdConfig aimd;
  aimd.initial_rate = kbps(12);  // far below the 34K floor
  aimd.max_rate = kbps(14);
  auto controller = std::make_unique<transport::AimdRateController>(aimd);
  StreamSender sender(sim, clip, 0, channel,
                      std::move(controller), quick_config(), util::Rng(1));
  sender.start();
  media::FeedbackMeta clean;
  clean.loss_fraction = 0.0;
  clean.receive_rate = kbps(12);
  for (int i = 0; i < 4; ++i) {
    sim.run_until(sim.now() + sec(3));
    sender.on_feedback(clean);
  }
  EXPECT_GT(sender.frames_thinned(), 5u);
}

TEST(StreamSender, RepairResendsFromRing) {
  sim::Simulator sim;
  const auto clip = surestream_clip();
  FakeChannel channel;
  StreamSender sender(sim, clip, 1, channel, nullptr, quick_config(),
                      util::Rng(1));
  sender.start();
  sim.run_until(sec(5));
  ASSERT_GT(channel.sent.size(), 10u);
  const std::uint32_t seq = channel.sent[4]->seq;
  const auto before = channel.sent.size();
  media::RepairRequestMeta nak;
  nak.seqs = {seq, seq + 1, 9999999u};  // last one is out of the ring
  sender.on_repair_request(nak);
  ASSERT_EQ(channel.sent.size(), before + 2);
  EXPECT_EQ(channel.sent[before]->kind, media::MediaKind::kRepair);
  EXPECT_EQ(channel.sent[before]->seq, seq);
  EXPECT_EQ(sender.repairs_sent(), 2u);
}

// The repair window holds the last repair_window video packets: a NAK is
// served for seqs inside it, its oldest and newest included, and for
// nothing else: not a video seq it has dropped, not an audio seq (never
// stored) and not a seq never sent.
TEST(StreamSender, RepairWindowServesOnlyItsVideoPackets) {
  sim::Simulator sim;
  const auto clip = surestream_clip();
  FakeChannel channel;
  StreamSenderConfig cfg = quick_config();
  cfg.repair_window = 32;
  StreamSender sender(sim, clip, 1, channel, nullptr, cfg, util::Rng(1));
  sender.start();
  sim.run_until(sec(5));
  std::vector<std::uint32_t> video;
  std::vector<std::uint32_t> audio;
  for (const auto& meta : channel.sent) {
    if (meta->kind == media::MediaKind::kVideo) video.push_back(meta->seq);
    if (meta->kind == media::MediaKind::kAudio) audio.push_back(meta->seq);
  }
  ASSERT_GT(video.size(), 40u);
  ASSERT_FALSE(audio.empty());
  const std::size_t n = video.size();
  const std::uint32_t newest = video[n - 1];
  const std::uint32_t oldest = video[n - 32];
  const std::uint32_t inside = video[n - 16];
  const std::uint32_t dropped = video[n - 33];
  const std::uint32_t first = video[0];
  // An audio seq sent between two video packets still in the window.
  std::uint32_t audio_inside = 0;
  for (const std::uint32_t seq : audio) {
    if (seq > oldest && seq < newest) audio_inside = seq;
  }

  ASSERT_NE(audio_inside, 0u);

  const auto before = channel.sent.size();
  media::RepairRequestMeta nak;
  nak.seqs = {inside, dropped, oldest, first,        newest + 1,
              newest, audio.front(), audio_inside};
  sender.on_repair_request(nak);
  std::vector<std::uint32_t> repaired;
  for (std::size_t i = before; i < channel.sent.size(); ++i) {
    EXPECT_EQ(channel.sent[i]->kind, media::MediaKind::kRepair);
    repaired.push_back(channel.sent[i]->seq);
  }
  EXPECT_EQ(repaired, (std::vector<std::uint32_t>{inside, oldest, newest}));
  EXPECT_EQ(sender.repairs_sent(), 3u);
  sender.stop();
}

TEST(StreamSender, DeepTcpBacklogPausesPumpAndSwitchesDown) {
  sim::Simulator sim;
  const auto clip = surestream_clip();
  FakeChannel channel;
  channel.reliable_flag = true;
  StreamSenderConfig cfg = quick_config();
  StreamSender sender(sim, clip, 2, channel, nullptr, cfg, util::Rng(1));
  sender.start();
  sim.run_until(sec(2));
  // Simulate a TCP that cannot drain: enormous backlog.
  channel.backlog = 1'000'000;
  const auto sent_before = channel.sent.size();
  sim.run_until(sec(8));
  // Pump paused: (almost) nothing more was submitted.
  EXPECT_LE(channel.sent.size(), sent_before + 3);
  // And the SureStream logic moved to a cheaper level.
  EXPECT_LT(sender.active_level(), 2u);
  sender.stop();
}

TEST(StreamSender, StopIsIdempotentAndHaltsTraffic) {
  sim::Simulator sim;
  const auto clip = surestream_clip();
  FakeChannel channel;
  StreamSender sender(sim, clip, 0, channel, nullptr, quick_config(),
                      util::Rng(1));
  sender.start();
  sim.run_until(sec(2));
  sender.stop();
  sender.stop();
  const auto frozen = channel.sent.size();
  sim.run_until(sec(10));
  EXPECT_EQ(channel.sent.size(), frozen);
}

}  // namespace
}  // namespace rv::server
