// The server-side streaming engine for one session.
//
// Implements the RealServer behaviours the paper describes in §II:
//  - paced sending at the active encoding level's rate, with a
//    faster-than-realtime burst while the client pre-buffers
//  - SureStream mid-stream level switching, driven by the application-layer
//    rate controller (UDP) or by send-backlog pressure (TCP)
//  - Scalable Video Technology frame thinning when even the lowest level
//    exceeds the usable rate
//  - answering NAK repair requests with error-correction packets
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "media/clip.h"
#include "media/frame_schedule.h"
#include "media/packetizer.h"
#include "media/stream_wire.h"
#include "sim/simulator.h"
#include "transport/rate_control.h"
#include "util/rng.h"
#include "util/units.h"

namespace rv::server {

// How the sender pushes packets toward the client; implemented over UDP
// datagrams or TCP chunks by the server app.
class MediaChannel {
 public:
  virtual ~MediaChannel() = default;
  virtual void send_media(std::shared_ptr<const media::MediaPacketMeta> meta,
                          std::int32_t payload_bytes) = 0;
  // Bytes accepted but not yet delivered (TCP backlog); 0 for UDP.
  virtual std::int64_t backlog_bytes() const = 0;
  virtual bool reliable() const = 0;
};

struct StreamSenderConfig {
  std::int32_t max_payload = 1000;      // media packet payload cap
  double preroll_media_seconds = 8.0;   // media sent at burst rate first
  double preroll_burst_factor = 1.8;    // rate multiplier during preroll
  double steady_factor = 1.08;          // slight overspeed in steady state
  // TCP backlog thresholds (in seconds of the active level's bandwidth).
  double backlog_switch_down_sec = 2.0;
  double backlog_switch_up_sec = 0.3;
  SimTime level_check_interval = msec(1000);
  // Repair ring: how many recent video packets can be re-sent on NAK.
  std::size_t repair_window = 512;
  bool surestream_enabled = true;
  bool svt_enabled = true;
  // RealServer sizes media packets to the client's connection speed; turn
  // off to always use MTU-sized packets (ablation).
  bool adaptive_packet_size = true;
  // Live content (paper §VIII / [LH01]): frames come off a camera in real
  // time, so the sender can never run ahead of the live edge — no pre-roll
  // burst, and a stalled client rejoins at the edge instead of catching up.
  bool live = false;
};

class StreamSender {
 public:
  // `controller` may be null (TCP sessions: the transport adapts). `rng`
  // drives SVT thinning decisions.
  StreamSender(sim::Simulator& sim, const media::Clip& clip,
               std::size_t initial_level, MediaChannel& channel,
               std::unique_ptr<transport::RateController> controller,
               const StreamSenderConfig& config, util::Rng rng);

  // Begins streaming (PLAY).
  void start();
  // Stops streaming (TEARDOWN); outstanding events are disarmed.
  void stop();
  bool stopped() const { return stopped_; }

  // Receiver feedback from the data back-channel (UDP sessions).
  void on_feedback(const media::FeedbackMeta& feedback);
  // NAK: re-send the requested packets if still in the repair window.
  void on_repair_request(const media::RepairRequestMeta& request);

  std::size_t active_level() const { return level_; }
  std::uint64_t level_switches() const { return level_switches_; }
  std::uint64_t frames_thinned() const { return frames_thinned_; }
  // Packets carrying a video frame's fragment: every fragment of every
  // frame sent, plus every repair.
  std::uint64_t frame_packets_sent() const { return frame_packets_sent_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t repairs_sent() const { return repairs_sent_; }

 private:
  void pump();                 // paced send loop
  void send_frame_packets(const media::VideoFrame& frame);
  void send_audio_up_to(SimTime media_pos);
  void send_end_of_stream();
  void check_level();          // periodic SureStream decision (TCP path)
  void switch_level(std::size_t new_level);
  BitsPerSec current_send_rate() const;
  bool should_thin(const media::VideoFrame& frame);
  // The active level's frame schedule.
  const media::FrameSchedule& schedule() const { return *schedules_[level_]; }

  sim::Simulator& sim_;
  const media::Clip& clip_;
  MediaChannel& channel_;
  std::unique_ptr<transport::RateController> controller_;
  StreamSenderConfig config_;
  util::Rng rng_;

  std::size_t level_;
  // One schedule per level, made on the level's first use: a schedule
  // depends only on (clip, level), so switching back reuses it. Each
  // generates its frames only as far as the sender reads.
  std::vector<std::optional<media::FrameSchedule>> schedules_;
  std::size_t next_frame_ = 0;
  SimTime media_pos_ = 0;        // media time up to which we have sent
  SimTime audio_pos_ = 0;        // audio sent up to this media time
  std::uint32_t seq_ = 0;
  double send_credit_bytes_ = 0; // token bucket
  SimTime last_pump_ = 0;
  SimTime start_wall_ = 0;       // when streaming began (live-edge anchor)
  bool started_ = false;
  bool stopped_ = false;
  bool eos_sent_ = false;
  sim::EventId pump_event_ = sim::kInvalidEventId;
  sim::EventId level_event_ = sim::kInvalidEventId;

  double rtt_sec_ = 0.25;        // EWMA from feedback echoes
  std::uint64_t level_switches_ = 0;
  std::uint64_t frames_thinned_ = 0;
  std::uint64_t frame_packets_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t repairs_sent_ = 0;

  // The last repair_window video packets, in a ring whose oldest entry is
  // at repair_head_ once it is full. Seqs only increase, so the ring read
  // from there is sorted by seq.
  void remember_for_repair(std::shared_ptr<const media::MediaPacketMeta> meta);
  const media::MediaPacketMeta* find_repair(std::uint32_t seq) const;
  std::vector<std::shared_ptr<const media::MediaPacketMeta>> repair_ring_;
  std::size_t repair_head_ = 0;
};

}  // namespace rv::server
