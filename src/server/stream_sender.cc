#include "server/stream_sender.h"

#include <algorithm>

#include "util/check.h"

namespace rv::server {
namespace {

// Audio is sent as fixed-interval packets covering this much media time.
constexpr SimTime kAudioPacketSpan = msec(250);

}  // namespace

StreamSender::StreamSender(sim::Simulator& sim, const media::Clip& clip,
                           std::size_t initial_level, MediaChannel& channel,
                           std::unique_ptr<transport::RateController>
                               controller,
                           const StreamSenderConfig& config, util::Rng rng)
    : sim_(sim),
      clip_(clip),
      channel_(channel),
      controller_(std::move(controller)),
      config_(config),
      rng_(std::move(rng)),
      level_(std::min(initial_level, clip.levels().size() - 1)),
      schedules_(clip.levels().size()) {
  RV_CHECK_GT(config_.max_payload, 0);
  schedules_[level_] = media::FrameSchedule::generate(clip_, level_);
}

void StreamSender::start() {
  RV_CHECK(!started_);
  started_ = true;
  start_wall_ = sim_.now();
  last_pump_ = sim_.now();
  pump();
  if (!channel_.reliable() || config_.surestream_enabled) {
    level_event_ = sim_.schedule_in(config_.level_check_interval,
                                    [this] { check_level(); });
  }
}

void StreamSender::stop() {
  if (stopped_) return;
  stopped_ = true;
  sim_.cancel(pump_event_);
  sim_.cancel(level_event_);
  pump_event_ = sim::kInvalidEventId;
  level_event_ = sim::kInvalidEventId;
}

BitsPerSec StreamSender::current_send_rate() const {
  const auto& level = clip_.level(level_);
  // Live content cannot be sent faster than it is produced.
  const bool prerolling =
      !config_.live &&
      to_seconds(media_pos_) < config_.preroll_media_seconds;
  double rate = level.total_bandwidth *
                (prerolling ? config_.preroll_burst_factor
                            : config_.steady_factor);
  if (controller_ != nullptr) {
    rate = std::min(rate, controller_->allowed_rate());
  }
  return std::max(rate, kbps(4));  // never fully stall the stream
}

void StreamSender::pump() {
  pump_event_ = sim::kInvalidEventId;
  if (stopped_) return;

  // Refill the token bucket for the elapsed time.
  const SimTime now = sim_.now();
  const BitsPerSec rate = current_send_rate();
  send_credit_bytes_ += rate / 8.0 * to_seconds(now - last_pump_);
  // Cap accumulated credit at one second of budget (bounds burst size).
  send_credit_bytes_ = std::min(send_credit_bytes_, rate / 8.0);
  last_pump_ = now;

  // TCP: do not stuff the transport far beyond its delivery rate — pause
  // pumping while the backlog is deep (the level logic watches it too).
  const double backlog_cap_sec = config_.backlog_switch_down_sec * 2.0;
  const auto backlog_cap = static_cast<std::int64_t>(
      clip_.level(level_).total_bandwidth / 8.0 * backlog_cap_sec);

  // The live edge: media that exists yet (plus a small encoder delay).
  const SimTime live_edge = now - start_wall_ - msec(200);

  // The schedule generates frames as this loop first reads them.
  const media::VideoFrame* frame = nullptr;
  while ((frame = schedule().find(next_frame_)) != nullptr) {
    if (channel_.backlog_bytes() > backlog_cap) break;
    if (config_.live && frame->pts > live_edge) break;
    if (static_cast<double>(frame->bytes) > send_credit_bytes_) break;
    send_audio_up_to(frame->pts);
    if (should_thin(*frame)) {
      ++frames_thinned_;
    } else {
      send_frame_packets(*frame);
    }
    send_credit_bytes_ -= static_cast<double>(frame->bytes);
    media_pos_ = frame->pts;
    ++next_frame_;
  }

  if (frame == nullptr) {
    send_audio_up_to(clip_.duration());
    send_end_of_stream();
    return;
  }

  // Sleep until there is credit for the next frame (or a backlog re-check).
  const double deficit =
      static_cast<double>(frame->bytes) - send_credit_bytes_;
  SimTime delay = msec(20);
  if (deficit > 0 && channel_.backlog_bytes() <= backlog_cap) {
    delay = std::max<SimTime>(
        usec(500), seconds_to_sim(deficit / (current_send_rate() / 8.0)));
  }
  pump_event_ = sim_.schedule_in(delay, [this] { pump(); });
}

void StreamSender::send_frame_packets(const media::VideoFrame& frame) {
  auto packets = media::packetize_frame(
      frame, clip_.id(), static_cast<std::uint16_t>(level_),
      config_.max_payload, seq_);
  for (auto& meta : packets) {
    meta->sent_at = sim_.now();
    const std::int32_t bytes = meta->payload_bytes;
    std::shared_ptr<const media::MediaPacketMeta> shared = std::move(meta);
    remember_for_repair(shared);
    channel_.send_media(std::move(shared), bytes);
    ++packets_sent_;
    ++frame_packets_sent_;
  }
}

void StreamSender::send_audio_up_to(SimTime media_pos) {
  const auto& level = clip_.level(level_);
  while (audio_pos_ < media_pos) {
    auto meta = std::make_shared<media::MediaPacketMeta>();
    meta->clip_id = clip_.id();
    meta->level = static_cast<std::uint16_t>(level_);
    meta->kind = media::MediaKind::kAudio;
    meta->pts = audio_pos_;
    meta->frag_count = 1;
    meta->payload_bytes = std::max<std::int32_t>(
        16, static_cast<std::int32_t>(level.audio_bandwidth / 8.0 *
                                      to_seconds(kAudioPacketSpan)));
    meta->frame_bytes = meta->payload_bytes;
    meta->seq = seq_++;
    meta->sent_at = sim_.now();
    channel_.send_media(meta, meta->payload_bytes);
    ++packets_sent_;
    audio_pos_ += kAudioPacketSpan;
    // Audio bytes consume send credit as well.
    send_credit_bytes_ -= meta->payload_bytes;
  }
}

void StreamSender::send_end_of_stream() {
  if (eos_sent_) return;
  eos_sent_ = true;
  // Over UDP the EOS may be lost; send a small burst.
  const int copies = channel_.reliable() ? 1 : 3;
  for (int i = 0; i < copies; ++i) {
    auto meta = std::make_shared<media::MediaPacketMeta>();
    meta->clip_id = clip_.id();
    meta->kind = media::MediaKind::kEndOfStream;
    meta->pts = clip_.duration();
    meta->frag_count = 1;
    meta->payload_bytes = 16;
    meta->frame_bytes = 16;
    meta->seq = seq_++;
    meta->sent_at = sim_.now();
    channel_.send_media(meta, meta->payload_bytes);
  }
  stop();
}

bool StreamSender::should_thin(const media::VideoFrame& frame) {
  if (!config_.svt_enabled || frame.keyframe) return false;
  if (controller_ == nullptr) {
    // TCP: thin when the backlog is deep and we're already at the floor.
    if (level_ != 0) return false;
    const auto backlog_sec =
        static_cast<double>(channel_.backlog_bytes()) /
        (clip_.level(0).total_bandwidth / 8.0);
    if (backlog_sec < config_.backlog_switch_down_sec) return false;
    return rng_.bernoulli(0.5);
  }
  const double allowed = controller_->allowed_rate();
  const double needed = clip_.level(level_).total_bandwidth;
  if (allowed >= needed || level_ != 0) return false;
  // Keep probability proportional to the usable share of the level's rate.
  const double keep = std::clamp(allowed / needed, 0.1, 1.0);
  return !rng_.bernoulli(keep);
}

void StreamSender::on_feedback(const media::FeedbackMeta& feedback) {
  if (stopped_) return;
  const SimTime rtt_sample =
      sim_.now() - feedback.echo_sent_at - feedback.echo_hold;
  if (rtt_sample > 0 && feedback.echo_sent_at > 0) {
    rtt_sec_ = 0.8 * rtt_sec_ + 0.2 * to_seconds(rtt_sample);
  }
  if (controller_ != nullptr) {
    transport::FeedbackReport report;
    report.loss_fraction = feedback.loss_fraction;
    report.receive_rate = feedback.receive_rate;
    report.rtt_seconds = rtt_sec_;
    controller_->on_feedback(report);
    if (config_.surestream_enabled) {
      // Pick the best level for the allowed rate, with hysteresis: switch up
      // only when there is 15% headroom.
      const BitsPerSec allowed = controller_->allowed_rate();
      std::size_t target = clip_.best_level_for(allowed / 1.15);
      if (clip_.level(target).total_bandwidth > allowed) target = 0;
      if (target != level_) switch_level(target);
    }
  }
}

void StreamSender::remember_for_repair(
    std::shared_ptr<const media::MediaPacketMeta> meta) {
  if (config_.repair_window == 0) return;
  if (repair_ring_.size() < config_.repair_window) {
    repair_ring_.push_back(std::move(meta));
    return;
  }
  repair_ring_[repair_head_] = std::move(meta);
  repair_head_ = (repair_head_ + 1) % repair_ring_.size();
}

const media::MediaPacketMeta* StreamSender::find_repair(
    std::uint32_t seq) const {
  // Binary search over the ring in seq order, oldest first.
  const std::size_t n = repair_ring_.size();
  const auto at = [&](std::size_t i) -> const media::MediaPacketMeta& {
    return *repair_ring_[(repair_head_ + i) % n];
  };
  std::size_t lo = 0;
  std::size_t hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid).seq < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < n && at(lo).seq == seq ? &at(lo) : nullptr;
}

void StreamSender::on_repair_request(const media::RepairRequestMeta& request) {
  if (stopped_) return;
  for (const std::uint32_t seq : request.seqs) {
    const media::MediaPacketMeta* stored = find_repair(seq);
    if (stored == nullptr) continue;
    auto repair = std::make_shared<media::MediaPacketMeta>(*stored);
    repair->kind = media::MediaKind::kRepair;
    repair->sent_at = sim_.now();
    channel_.send_media(repair, repair->payload_bytes);
    ++repairs_sent_;
    ++frame_packets_sent_;
  }
}

void StreamSender::check_level() {
  level_event_ = sim::kInvalidEventId;
  if (stopped_) return;
  if (controller_ == nullptr && config_.surestream_enabled &&
      clip_.is_surestream()) {
    // TCP path: backlog pressure decides.
    const auto& level = clip_.level(level_);
    const double backlog_sec =
        static_cast<double>(channel_.backlog_bytes()) /
        (level.total_bandwidth / 8.0);
    if (backlog_sec > config_.backlog_switch_down_sec && level_ > 0) {
      switch_level(level_ - 1);
    } else if (backlog_sec < config_.backlog_switch_up_sec &&
               level_ + 1 < clip_.levels().size()) {
      // Probe upward cautiously once the pipe is clearly keeping up.
      if (to_seconds(media_pos_) > config_.preroll_media_seconds) {
        switch_level(level_ + 1);
      }
    }
  }
  level_event_ = sim_.schedule_in(config_.level_check_interval,
                                  [this] { check_level(); });
}

void StreamSender::switch_level(std::size_t new_level) {
  RV_CHECK_LT(new_level, clip_.levels().size());
  if (new_level == level_) return;
  level_ = new_level;
  ++level_switches_;
  // Continue in the new level's schedule from the current media position.
  if (!schedules_[level_]) {
    schedules_[level_] = media::FrameSchedule::generate(clip_, level_);
  }
  next_frame_ = schedule().first_frame_at(media_pos_ + 1);
}

}  // namespace rv::server
