#include "client/real_player.h"

#include <algorithm>

#include "obs/trace.h"
#include "server/real_server.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/strings.h"

namespace rv::client {
namespace {

constexpr net::Port kClientDataPort = 6970;  // RealPlayer's default

// Reason codes for kRtspFallback trace events (arg a1).
constexpr std::uint64_t kFallbackLadderExhausted = 0;  // retry budget spent
constexpr std::uint64_t kFallbackUdpProbeTimeout = 1;  // no UDP data arrived

}  // namespace

RealPlayerApp::RealPlayerApp(net::Network& network, net::NodeId node,
                             net::Endpoint server, std::uint32_t clip_id,
                             const media::Catalog& catalog,
                             RealPlayerConfig config)
    : network_(network),
      mux_(network, node),
      server_(server),
      clip_id_(clip_id),
      catalog_(catalog),
      config_(config) {
  for (const auto& clip : catalog_.clips()) {
    if (clip.id() == clip_id_) clip_ = &clip;
  }
  RV_CHECK(clip_ != nullptr) << "clip not in catalog: " << clip_id;
  // Mean scene-action factor: converts a level's fps cap into the clip's
  // expected encoded frame rate.
  double weighted = 0.0;
  for (const auto& scene : clip_->scenes()) {
    weighted += to_seconds(scene.duration) * scene.action;
  }
  clip_action_avg_ = weighted / to_seconds(clip_->duration());
}

RealPlayerApp::~RealPlayerApp() {
  auto& sim = network_.simulator();
  sim.cancel(feedback_event_);
  sim.cancel(probe_event_);
  sim.cancel(watch_event_);
  sim.cancel(watchdog_event_);
  sim.cancel(sample_event_);
  sim.cancel(poll_event_);
  sim.cancel(connect_timer_);
  sim.cancel(request_timer_);
  sim.cancel(retry_timer_);
}

void RealPlayerApp::start() {
  plan_ = config_.prefer_udp ? TransportPlan::kUdp : TransportPlan::kTcp;
  retry_ = rtsp::RetryState(config_.retry);
  playout_ = std::make_unique<PlayoutEngine>(network_.simulator(),
                                             config_.playout);
  watchdog_event_ = network_.simulator().schedule_in(
      config_.session_timeout, [this] {
        watchdog_event_ = sim::kInvalidEventId;
        finish();
      });
  start_attempt();
}

// --- Retry ladder ----------------------------------------------------------

void RealPlayerApp::start_attempt() {
  if (finished_) return;
  ++attempt_epoch_;
  using_udp_ = plan_ == TransportPlan::kUdp;
  stats_.protocol = using_udp_ ? net::Protocol::kUdp : net::Protocol::kTcp;
  if (!metafile_ok_ && config_.fetch_metafile && config_.http_port != 0) {
    fetch_metafile();
  } else {
    open_control();
  }
}

void RealPlayerApp::arm_connect_timer() {
  network_.simulator().cancel(connect_timer_);
  connect_timer_ = network_.simulator().schedule_in(
      config_.connect_timeout, [this] {
        connect_timer_ = sim::kInvalidEventId;
        on_attempt_failed();
      });
}

void RealPlayerApp::arm_request_timer() {
  network_.simulator().cancel(request_timer_);
  request_timer_ = network_.simulator().schedule_in(
      config_.request_timeout, [this] {
        request_timer_ = sim::kInvalidEventId;
        on_attempt_failed();
      });
}

void RealPlayerApp::cancel_attempt_timers() {
  auto& sim = network_.simulator();
  sim.cancel(connect_timer_);
  sim.cancel(request_timer_);
  connect_timer_ = sim::kInvalidEventId;
  request_timer_ = sim::kInvalidEventId;
}

void RealPlayerApp::abort_attempt_connections() {
  // Detach callbacks first: the closes below are intentional and must not
  // re-enter the failure path.
  if (http_conn_) {
    http_conn_->set_on_closed({});
    http_conn_->set_on_chunk({});
    http_conn_->close();
    http_conn_.reset();
  }
  if (control_) {
    control_->set_on_closed({});
    control_->set_on_chunk({});
    control_->close();
    control_.reset();
  }
  data_socket_.reset();
  pending_.clear();
}

// A connect or request attempt timed out (or its connection died early):
// back off and retry the current transport plan, or fall down the ladder.
void RealPlayerApp::on_attempt_failed() {
  if (finished_ || playing_) return;
  ++attempt_epoch_;
  cancel_attempt_timers();
  abort_attempt_connections();
  if (const auto backoff = retry_.next_backoff()) {
    ++stats_.rtsp_retries;
    obs::emit(network_.simulator().now(), obs::Code::kRtspRetry,
              static_cast<std::uint64_t>(stats_.rtsp_retries),
              static_cast<std::uint64_t>(*backoff));
    obs::count(obs::Counter::kRtspRetries);
    retry_timer_ = network_.simulator().schedule_in(*backoff, [this] {
      retry_timer_ = sim::kInvalidEventId;
      start_attempt();
    });
    return;
  }
  advance_plan();
}

void RealPlayerApp::advance_plan() {
  retry_.reset();
  if (plan_ == TransportPlan::kUdp) {
    plan_ = TransportPlan::kTcp;
    fallback_done_ = true;
    stats_.fell_back_to_tcp = true;
    obs::emit(network_.simulator().now(), obs::Code::kRtspFallback, 1,
              kFallbackLadderExhausted);
    obs::gauge_max(obs::Counter::kFallbackDepth, 1);
  } else if (plan_ == TransportPlan::kTcp && config_.http_cloak_fallback &&
             config_.http_port != 0) {
    plan_ = TransportPlan::kHttpCloak;
    stats_.fell_back_to_http = true;
    obs::emit(network_.simulator().now(), obs::Code::kRtspFallback, 2,
              kFallbackLadderExhausted);
    obs::gauge_max(obs::Counter::kFallbackDepth, 2);
  } else {
    give_up();
    return;
  }
  start_attempt();
}

void RealPlayerApp::give_up() {
  // The whole ladder failed before a session was ever established: as far
  // as RealTracer can tell, the clip is unavailable (Fig 10).
  if (!stats_.session_established) clip_unavailable_ = true;
  finish();
}

void RealPlayerApp::fetch_metafile() {
  // The browser step: GET the .ram metafile; its body names the rtsp:// URL.
  http_conn_ = std::make_unique<transport::TcpConnection>(mux_, config_.tcp);
  http_conn_->set_on_established([this] {
    cancel_attempt_timers();
    arm_request_timer();
    rtsp::HttpRequest req;
    req.path = server::RealServerApp::metafile_path(clip_id_);
    req.headers.set("User-Agent", "RealTracer/1.0");
    const std::string wire = req.serialize();
    http_conn_->send_chunk(static_cast<std::int64_t>(wire.size()),
                           std::make_shared<media::RtspTextMeta>(wire));
  });
  http_conn_->set_on_chunk(
      [this](std::shared_ptr<const net::PayloadMeta> meta, std::int64_t) {
        const auto* text =
            dynamic_cast<const media::RtspTextMeta*>(meta.get());
        if (text == nullptr || finished_) return;
        cancel_attempt_timers();
        const auto resp = rtsp::parse_http_response(text->text);
        http_conn_->set_on_closed({});
        if (!resp || !resp->ok() ||
            rtsp::parse_ram_metafile(resp->body).empty()) {
          // A definitive "no such clip" from the web server: no retry.
          clip_unavailable_ = true;
          finish();
          return;
        }
        metafile_ok_ = true;
        // Hand off to the player proper. (Deferred: we are inside the HTTP
        // connection's callback.)
        network_.simulator().schedule_in(0, [this] {
          if (!finished_) open_control();
        });
      });
  http_conn_->set_on_closed([this] {
    // Closed before the metafile arrived: a failed attempt, not a verdict.
    if (!playing_ && !finished_ && !metafile_ok_) {
      const auto epoch = attempt_epoch_;
      network_.simulator().schedule_in(0, [this, epoch] {
        if (epoch == attempt_epoch_) on_attempt_failed();
      });
    }
  });
  arm_connect_timer();
  http_conn_->connect({server_.node, config_.http_port});
}

void RealPlayerApp::open_control() {
  control_ = std::make_unique<transport::TcpConnection>(mux_, config_.tcp);
  control_->set_on_established([this] {
    cancel_attempt_timers();
    send_request(rtsp::Method::kDescribe);
  });
  control_->set_on_chunk(
      [this](std::shared_ptr<const net::PayloadMeta> meta,
             std::int64_t bytes) { on_control_chunk(std::move(meta), bytes); });
  control_->set_on_closed([this] {
    // A dead control connection before playout: retry rather than declare
    // the session over.
    if (!playing_ && !finished_) {
      const auto epoch = attempt_epoch_;
      network_.simulator().schedule_in(0, [this, epoch] {
        if (epoch == attempt_epoch_) on_attempt_failed();
      });
    }
  });
  arm_connect_timer();
  // HTTP cloaking speaks RTSP on the web port (port 554 unreachable).
  const net::Port port = plan_ == TransportPlan::kHttpCloak
                             ? config_.http_port
                             : server_.port;
  control_->connect({server_.node, port});
}

void RealPlayerApp::send_request(rtsp::Method method) {
  rtsp::Request req;
  req.method = method;
  req.url = server::RealServerApp::clip_url(clip_id_);
  req.cseq = ++cseq_;
  if (method == rtsp::Method::kSetup) {
    rtsp::TransportSpec spec;
    spec.use_udp = using_udp_;
    spec.client_port = kClientDataPort;
    req.headers.set("Transport", spec.serialize());
    req.headers.set("Bandwidth",
                    util::format_double(config_.reported_bandwidth, 0));
  }
  const std::string wire = req.serialize();
  pending_.push_back(method);
  // The session's liveness timer: a silent server (outage, overload stall)
  // fails the attempt instead of hanging until the watchdog.
  if (method != rtsp::Method::kTeardown) arm_request_timer();
  control_->send_chunk(static_cast<std::int64_t>(wire.size()),
                       std::make_shared<media::RtspTextMeta>(wire));
}

void RealPlayerApp::on_control_chunk(
    std::shared_ptr<const net::PayloadMeta> meta, std::int64_t /*bytes*/) {
  if (finished_) return;
  if (const auto* text = dynamic_cast<const media::RtspTextMeta*>(meta.get())) {
    const auto resp = rtsp::parse_response(text->text);
    if (resp) on_response(*resp);
    return;
  }
  // Interleaved media data on the control connection (TCP transport).
  if (auto media_meta =
          std::dynamic_pointer_cast<const media::MediaPacketMeta>(meta)) {
    handle_media(media_meta);
  }
}

void RealPlayerApp::on_response(const rtsp::Response& resp) {
  if (pending_.empty()) return;
  network_.simulator().cancel(request_timer_);
  request_timer_ = sim::kInvalidEventId;
  const rtsp::Method method = pending_.front();
  pending_.pop_front();

  if (!resp.ok()) {
    if (method == rtsp::Method::kDescribe &&
        resp.status == rtsp::StatusCode::kNotFound) {
      clip_unavailable_ = true;
    }
    finish();
    return;
  }

  switch (method) {
    case rtsp::Method::kDescribe: {
      stats_.session_established = true;
      if (using_udp_) {
        data_socket_ =
            std::make_unique<transport::UdpSocket>(mux_, kClientDataPort);
        data_socket_->set_on_datagram(
            [this](net::Endpoint, std::shared_ptr<const net::PayloadMeta> m,
                   std::int32_t) {
              if (config_.udp_blocked) return;  // firewall eats inbound UDP
              if (auto media_meta =
                      std::dynamic_pointer_cast<const media::MediaPacketMeta>(
                          m)) {
                handle_media(media_meta);
              }
            });
      }
      send_request(rtsp::Method::kSetup);
      break;
    }
    case rtsp::Method::kSetup: {
      if (using_udp_) {
        // Parse server_port from the Transport header.
        server_data_ = {server_.node, 0};
        if (const auto t = resp.headers.get("Transport")) {
          for (const auto& field : util::split(*t, ';')) {
            const auto [key, value] = util::split_first(field, '=');
            if (util::iequals(util::trim(key), "server_port")) {
              server_data_.port =
                  static_cast<net::Port>(std::atoi(value.c_str()));
            }
          }
        }
      }
      send_request(rtsp::Method::kPlay);
      break;
    }
    case rtsp::Method::kPlay:
      on_play_confirmed();
      break;
    case rtsp::Method::kTeardown:
    default:
      break;
  }
}

void RealPlayerApp::on_play_confirmed() {
  playing_ = true;
  play_confirm_time_ = network_.simulator().now();
  playout_->start();

  auto& sim = network_.simulator();
  if (using_udp_) {
    feedback_event_ =
        sim.schedule_in(config_.feedback_interval, [this] { send_feedback(); });
    probe_event_ = sim.schedule_in(config_.udp_probe_timeout, [this] {
      probe_event_ = sim::kInvalidEventId;
      if (stats_.packets_received == 0) fall_back_to_tcp();
    });
  }
  sample_event_ = sim.schedule_in(sec(1), [this] { take_second_sample(); });
  // Watch-window timer: RealTracer stops the clip after 1 minute of
  // *playout*; poll for playout start, then arm the stop timer.
  poll_event_ =
      sim.schedule_in(msec(250), [this] { on_play_confirmed_poll(); });
}

// Polls for playout start, then arms the 1-minute watch-window stop timer.
void RealPlayerApp::on_play_confirmed_poll() {
  poll_event_ = sim::kInvalidEventId;
  if (finished_) return;
  if (playout_->playout_started()) {
    watch_event_ = network_.simulator().schedule_in(
        config_.watch_duration, [this] {
          watch_event_ = sim::kInvalidEventId;
          finish();
        });
    return;
  }
  poll_event_ = network_.simulator().schedule_in(
      msec(250), [this] { on_play_confirmed_poll(); });
}

void RealPlayerApp::note_level(std::uint16_t level) {
  const SimTime now = network_.simulator().now();
  if (level_known_ && level == current_level_) return;
  if (level_known_) {
    const double span = to_seconds(now - level_since_);
    const auto& lvl = clip_->level(current_level_);
    level_weight_sec_ += span;
    weighted_bw_ += span * lvl.total_bandwidth;
    weighted_fps_ += span * lvl.encoded_fps * clip_action_avg_;
  }
  current_level_ = level;
  level_known_ = true;
  level_since_ = now;
}

void RealPlayerApp::handle_media(
    const std::shared_ptr<const media::MediaPacketMeta>& meta) {
  if (finished_) return;
  stats_.bytes_received += meta->payload_bytes;
  ++stats_.packets_received;
  last_echo_ts_ = meta->sent_at;
  last_echo_arrival_ = network_.simulator().now();

  if (using_udp_) {
    loss_monitor_.on_packet(meta->seq);
    // Gap tracking for NAK repair.
    if (!seen_any_seq_) {
      seen_any_seq_ = true;
      next_expected_seq_ = meta->seq + 1;
    } else if (meta->seq >= next_expected_seq_) {
      if (meta->seq > next_expected_seq_) {
        obs::emit(network_.simulator().now(), obs::Code::kUdpLossBurst,
                  meta->seq - next_expected_seq_, next_expected_seq_);
        obs::count(obs::Counter::kUdpLossGaps);
      }
      for (std::uint32_t s = next_expected_seq_;
           s < meta->seq && missing_seqs_.size() < 64; ++s) {
        missing_seqs_.insert(s);
      }
      next_expected_seq_ = meta->seq + 1;
    } else {
      missing_seqs_.erase(meta->seq);  // late or repaired packet arrived
    }
  }

  switch (meta->kind) {
    case media::MediaKind::kVideo:
    case media::MediaKind::kRepair: {
      if (meta->kind == media::MediaKind::kRepair) {
        ++stats_.repairs_received;
      }
      note_level(meta->level);
      if (auto frame = assembler_.add(*meta)) {
        ++frames_received_;
        playout_->on_frame(*frame);
      }
      // Partial frames whose playout slot passed are lost for good.
      if (playout_->playout_started()) {
        const auto discarded = static_cast<std::int64_t>(
            assembler_.discard_before(playout_->playout_position()));
        frames_received_ += discarded;
        playout_->add_network_drops(discarded);
      }
      break;
    }
    case media::MediaKind::kAudio:
      break;  // audio contributes to bandwidth only
    case media::MediaKind::kEndOfStream:
      playout_->on_end_of_stream();
      break;
  }
}

void RealPlayerApp::send_feedback() {
  feedback_event_ = sim::kInvalidEventId;
  if (finished_ || !using_udp_ || data_socket_ == nullptr) return;
  if (server_data_.port != 0 && !config_.udp_blocked) {
    const auto interval_sec = to_seconds(config_.feedback_interval);
    const auto report = loss_monitor_.take();
    auto fb = std::make_shared<media::FeedbackMeta>();
    fb->loss_fraction = report.loss_fraction();
    // Goodput over the interval: count payload bytes via packets seen.
    fb->receive_rate =
        static_cast<double>(stats_.bytes_received - last_feedback_bytes_) *
        8.0 / interval_sec;
    last_feedback_bytes_ = stats_.bytes_received;
    fb->echo_sent_at = last_echo_ts_;
    fb->echo_hold = network_.simulator().now() - last_echo_arrival_;
    fb->total_received = loss_monitor_.total_received();
    data_socket_->send_to(server_data_, media::kFeedbackPayloadBytes, fb);

    if (!missing_seqs_.empty()) {
      auto nak = std::make_shared<media::RepairRequestMeta>();
      nak->seqs.assign(missing_seqs_.begin(), missing_seqs_.end());
      missing_seqs_.clear();
      const auto bytes = static_cast<std::int32_t>(
          media::kRepairRequestBaseBytes +
          media::kRepairRequestBytesPerSeq *
              static_cast<std::int32_t>(nak->seqs.size()));
      data_socket_->send_to(server_data_, bytes, std::move(nak));
    }
  }
  feedback_event_ = network_.simulator().schedule_in(
      config_.feedback_interval, [this] { send_feedback(); });
}

void RealPlayerApp::fall_back_to_tcp() {
  if (fallback_done_ || finished_) return;
  fallback_done_ = true;
  stats_.fell_back_to_tcp = true;
  obs::emit(network_.simulator().now(), obs::Code::kRtspFallback, 1,
            kFallbackUdpProbeTimeout);
  obs::gauge_max(obs::Counter::kFallbackDepth, 1);
  stats_.protocol = net::Protocol::kTcp;
  plan_ = TransportPlan::kTcp;
  retry_.reset();       // fresh attempt budget for the TCP plan
  ++attempt_epoch_;     // invalidate the UDP attempt's deferred events
  using_udp_ = false;
  playing_ = false;
  // Tear down the old session and reconnect over TCP.
  auto& sim = network_.simulator();
  sim.cancel(feedback_event_);
  sim.cancel(sample_event_);
  sim.cancel(poll_event_);
  feedback_event_ = sim::kInvalidEventId;
  sample_event_ = sim::kInvalidEventId;
  poll_event_ = sim::kInvalidEventId;
  data_socket_.reset();
  pending_.clear();
  // Detach the old connection's close callback: this close is intentional
  // and must not end the whole session.
  control_->set_on_closed({});
  control_->close();
  // Fresh playout engine: nothing arrived on the dead UDP path.
  playout_ = std::make_unique<PlayoutEngine>(sim, config_.playout);
  // Defer the reconnect so the old connection unwinds.
  sim.schedule_in(msec(100), [this] {
    if (!finished_) open_control();
  });
}

void RealPlayerApp::take_second_sample() {
  sample_event_ = sim::kInvalidEventId;
  if (finished_) return;
  SecondSample sample;
  sample.t_seconds =
      to_seconds(network_.simulator().now() - play_confirm_time_);
  sample.bandwidth = static_cast<double>(
                         stats_.bytes_received - last_sample_bytes_) *
                     8.0;
  sample.frame_rate = static_cast<double>(playout_->frames_played() -
                                          last_sample_frames_);
  last_sample_bytes_ = stats_.bytes_received;
  last_sample_frames_ = playout_->frames_played();
  stats_.samples.push_back(sample);
  sample_event_ = network_.simulator().schedule_in(
      sec(1), [this] { take_second_sample(); });
}

void RealPlayerApp::finish() {
  if (finished_) return;
  finished_ = true;
  auto& sim = network_.simulator();
  sim.cancel(feedback_event_);
  sim.cancel(probe_event_);
  sim.cancel(watch_event_);
  sim.cancel(watchdog_event_);
  sim.cancel(sample_event_);
  sim.cancel(poll_event_);
  sim.cancel(connect_timer_);
  sim.cancel(request_timer_);
  sim.cancel(retry_timer_);

  if (playout_) {
    playout_->stop();
    const auto& r = playout_->result();
    stats_.played_any_frame = r.played_any;
    stats_.measured_fps = r.measured_fps;
    stats_.jitter_ms = r.jitter_ms;
    stats_.frames_played = r.frames_played;
    stats_.frames_dropped = r.frames_dropped;
    stats_.frames_cpu_scaled = r.frames_cpu_scaled;
    stats_.rebuffer_events = r.rebuffer_events;
    stats_.rebuffer_seconds = r.rebuffer_seconds;
    stats_.preroll_seconds = r.preroll_seconds;
    stats_.play_seconds = r.play_seconds;
    stats_.cpu_utilization = r.cpu_utilization;
  }
  if (playing_) {
    const double wall =
        to_seconds(network_.simulator().now() - play_confirm_time_);
    if (wall > 0.5) {
      stats_.measured_bandwidth =
          static_cast<double>(stats_.bytes_received) * 8.0 / wall;
    }
  }
  // Close out encoded-rate accounting.
  if (level_known_) note_level(current_level_ + 1);  // flush accumulator
  if (level_weight_sec_ > 0) {
    stats_.encoded_bandwidth = weighted_bw_ / level_weight_sec_;
    stats_.encoded_fps = weighted_fps_ / level_weight_sec_;
  }

  if (control_ && !control_->closed() && control_->established()) {
    send_request(rtsp::Method::kTeardown);
    control_->close();
  }
  if (on_finished_) on_finished_();
}

}  // namespace rv::client
