// RealPlayer analog: RTSP session control, transport auto-configuration
// (UDP-first with TCP fallback), data reception/reassembly, loss feedback,
// NAK repair requests, and the playout engine — producing the per-clip
// statistics RealTracer records.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>

#include "client/clip_stats.h"
#include "client/playout.h"
#include "media/catalog.h"
#include "media/packetizer.h"
#include "media/stream_wire.h"
#include "net/network.h"
#include "rtsp/http.h"
#include "rtsp/message.h"
#include "rtsp/retry.h"
#include "transport/mux.h"
#include "transport/tcp.h"
#include "transport/udp.h"

namespace rv::client {

struct RealPlayerConfig {
  PlayoutConfig playout;
  transport::TcpConfig tcp;
  // The connection speed the user configured in RealPlayer (guides the
  // server's initial SureStream level).
  BitsPerSec reported_bandwidth = kbps(450);
  bool prefer_udp = true;   // RealPlayer's auto transport configuration
  bool udp_blocked = false; // NAT/firewall silently eats inbound UDP
  // Fetch the .ram metafile over HTTP first, as a browser click does
  // (§II.A); the rtsp:// URL inside it then drives the session.
  bool fetch_metafile = true;
  net::Port http_port = 80;
  SimTime udp_probe_timeout = sec(4);   // no data → reconnect over TCP
  SimTime feedback_interval = msec(500);
  SimTime watch_duration = sec(60);     // RealTracer plays 1 minute per clip
  SimTime session_timeout = sec(100);   // hard abort for dead sessions

  // --- Timeout/retry hardening (§II.A auto-configuration mechanics) -------
  // Deadline for a TCP handshake (HTTP metafile or RTSP control) before the
  // attempt is abandoned and retried.
  SimTime connect_timeout = sec(8);
  // Deadline for a DESCRIBE/SETUP/PLAY (or metafile GET) response.
  SimTime request_timeout = sec(10);
  // Attempts per transport plan; exhausting it falls down the
  // UDP → TCP → HTTP-cloak ladder, then gives up.
  rtsp::RetryPolicy retry;
  // Final ladder rung: speak RTSP on the server's HTTP port (RealPlayer's
  // "HTTP cloaking" for networks that block 554 outright).
  bool http_cloak_fallback = true;
};

class RealPlayerApp {
 public:
  RealPlayerApp(net::Network& network, net::NodeId node,
                net::Endpoint server, std::uint32_t clip_id,
                const media::Catalog& catalog, RealPlayerConfig config);
  ~RealPlayerApp();

  RealPlayerApp(const RealPlayerApp&) = delete;
  RealPlayerApp& operator=(const RealPlayerApp&) = delete;

  void start();
  void set_on_finished(std::function<void()> cb) {
    on_finished_ = std::move(cb);
  }
  bool finished() const { return finished_; }
  // Whether the server reported the clip as unavailable (404).
  bool clip_unavailable() const { return clip_unavailable_; }
  const ClipStats& stats() const { return stats_; }
  const PlayoutEngine& playout() const { return *playout_; }

  // Telemetry probes, safe to call at any point mid-session (the sampler
  // reads them on a fixed sim-time grid). All are cheap state reads.
  double buffered_media_seconds() const {
    return playout_ != nullptr ? playout_->buffered_span_sec() : 0.0;
  }
  std::int64_t frames_played_so_far() const {
    return playout_ != nullptr ? playout_->frames_played() : 0;
  }
  std::int64_t bytes_received_so_far() const { return stats_.bytes_received; }
  // Frames the assembler is done with: completed, or discarded incomplete
  // once their playout slot passed. Every frame a playout engine plays or
  // drops is one of them. A fragment arriving after its frame was completed
  // or discarded starts the frame again, so one frame can count twice.
  std::int64_t frames_received() const { return frames_received_; }

 private:
  // The transport auto-configuration ladder (§II.A): try UDP data first,
  // fall back to TCP interleaving, then to RTSP cloaked on the HTTP port.
  enum class TransportPlan { kUdp, kTcp, kHttpCloak };

  void start_attempt();
  void on_attempt_failed();
  void advance_plan();
  void give_up();
  void arm_connect_timer();
  void arm_request_timer();
  void cancel_attempt_timers();
  void abort_attempt_connections();
  void fetch_metafile();
  void open_control();
  void send_request(rtsp::Method method);
  void on_control_chunk(std::shared_ptr<const net::PayloadMeta> meta,
                        std::int64_t bytes);
  void on_response(const rtsp::Response& resp);
  void handle_media(const std::shared_ptr<const media::MediaPacketMeta>& meta);
  void on_play_confirmed();
  void on_play_confirmed_poll();
  void send_feedback();
  void fall_back_to_tcp();
  void take_second_sample();
  void note_level(std::uint16_t level);
  void finish();

  net::Network& network_;
  transport::TransportMux mux_;
  net::Endpoint server_;
  std::uint32_t clip_id_;
  const media::Catalog& catalog_;
  const media::Clip* clip_ = nullptr;
  RealPlayerConfig config_;

  std::unique_ptr<transport::TcpConnection> control_;
  std::unique_ptr<transport::TcpConnection> http_conn_;
  std::unique_ptr<transport::UdpSocket> data_socket_;
  std::unique_ptr<PlayoutEngine> playout_;
  media::FrameAssembler assembler_;
  media::LossMonitor loss_monitor_;

  bool using_udp_ = true;
  bool fallback_done_ = false;
  bool playing_ = false;
  bool finished_ = false;
  bool clip_unavailable_ = false;
  bool metafile_ok_ = false;
  TransportPlan plan_ = TransportPlan::kUdp;
  rtsp::RetryState retry_;
  // Invalidates deferred failure events queued by an earlier attempt's
  // connection callbacks (bumped on every attempt start/abort).
  std::uint64_t attempt_epoch_ = 0;
  int cseq_ = 0;
  std::deque<rtsp::Method> pending_;
  net::Endpoint server_data_;

  // Repair tracking (UDP): sequence numbers seen missing, not yet NAKed.
  std::set<std::uint32_t> missing_seqs_;
  std::uint32_t next_expected_seq_ = 0;
  bool seen_any_seq_ = false;

  // RTT echo state.
  SimTime last_echo_ts_ = 0;
  SimTime last_echo_arrival_ = 0;

  // Level/bandwidth accounting (time-weighted encoded rate and fps).
  std::uint16_t current_level_ = 0;
  bool level_known_ = false;
  SimTime level_since_ = 0;
  double level_weight_sec_ = 0.0;
  double weighted_bw_ = 0.0;
  double weighted_fps_ = 0.0;
  double clip_action_avg_ = 1.0;

  // Per-second sampling.
  std::int64_t last_feedback_bytes_ = 0;
  std::int64_t last_sample_bytes_ = 0;
  std::int64_t last_sample_frames_ = 0;
  SimTime play_confirm_time_ = 0;

  sim::EventId feedback_event_ = sim::kInvalidEventId;
  sim::EventId probe_event_ = sim::kInvalidEventId;
  sim::EventId watch_event_ = sim::kInvalidEventId;
  sim::EventId watchdog_event_ = sim::kInvalidEventId;
  sim::EventId sample_event_ = sim::kInvalidEventId;
  sim::EventId poll_event_ = sim::kInvalidEventId;
  sim::EventId connect_timer_ = sim::kInvalidEventId;
  sim::EventId request_timer_ = sim::kInvalidEventId;
  sim::EventId retry_timer_ = sim::kInvalidEventId;

  ClipStats stats_;
  std::int64_t frames_received_ = 0;
  std::function<void()> on_finished_;
};

}  // namespace rv::client
