#include "server/real_server.h"

#include <algorithm>
#include <charconv>

#include "rtsp/http.h"

#include "util/check.h"
#include "util/logging.h"
#include "util/strings.h"

namespace rv::server {
namespace {

// Media packet payload sizing: roughly 0.2 s of the client's connection rate
// per packet, as RealServer does for modem audiences, bounded to sane MTUs.
std::int32_t payload_for_bandwidth(BitsPerSec client_bw) {
  const double bytes = client_bw / 8.0 * 0.2;
  return static_cast<std::int32_t>(std::clamp(bytes, 400.0, 1400.0));
}

std::unique_ptr<transport::RateController> make_controller(
    CongestionControlKind kind, BitsPerSec initial, BitsPerSec max_rate) {
  switch (kind) {
    case CongestionControlKind::kAimd: {
      transport::AimdConfig cfg;
      cfg.initial_rate = initial;
      cfg.max_rate = max_rate;
      return std::make_unique<transport::AimdRateController>(cfg);
    }
    case CongestionControlKind::kTfrc: {
      transport::TfrcConfig cfg;
      cfg.initial_rate = initial;
      cfg.max_rate = max_rate;
      return std::make_unique<transport::TfrcController>(cfg);
    }
    case CongestionControlKind::kNone:
      return std::make_unique<transport::FixedRateController>(max_rate);
  }
  return nullptr;
}

class TcpMediaChannel final : public MediaChannel {
 public:
  explicit TcpMediaChannel(transport::TcpConnection& conn) : conn_(conn) {}
  void send_media(std::shared_ptr<const media::MediaPacketMeta> meta,
                  std::int32_t payload_bytes) override {
    // A peer close reaches the sender only once the FIN exchange finishes
    // (the session's close callback stops it); until then its writes are
    // dropped, as a write to a half-closed socket would fail.
    if (conn_.closing()) return;
    conn_.send_chunk(payload_bytes, std::move(meta));
  }
  std::int64_t backlog_bytes() const override {
    return conn_.backlog_bytes();
  }
  bool reliable() const override { return true; }

 private:
  transport::TcpConnection& conn_;
};

class UdpMediaChannel final : public MediaChannel {
 public:
  UdpMediaChannel(transport::UdpSocket& socket, net::Endpoint client)
      : socket_(socket), client_(client) {}
  void send_media(std::shared_ptr<const media::MediaPacketMeta> meta,
                  std::int32_t payload_bytes) override {
    socket_.send_to(client_, payload_bytes, std::move(meta));
  }
  std::int64_t backlog_bytes() const override { return 0; }
  bool reliable() const override { return false; }

 private:
  transport::UdpSocket& socket_;
  net::Endpoint client_;
};

}  // namespace

struct RealServerApp::SessionCtx {
  std::uint64_t id = 0;
  std::unique_ptr<transport::TcpConnection> control;
  rtsp::Session rtsp{0};
  const media::Clip* clip = nullptr;
  BitsPerSec client_bandwidth = kbps(450);
  bool use_udp = false;
  std::unique_ptr<transport::UdpSocket> data_socket;
  std::unique_ptr<MediaChannel> channel;
  std::unique_ptr<StreamSender> sender;
};

RealServerApp::RealServerApp(net::Network& network, net::NodeId node,
                             const media::Catalog& catalog,
                             RealServerConfig config, util::Rng rng)
    : network_(network),
      mux_(network, node),
      catalog_(catalog),
      config_(config),
      rng_(std::move(rng)) {
  listener_ = std::make_unique<transport::TcpListener>(
      mux_, config_.rtsp_port, config_.tcp,
      [this](std::unique_ptr<transport::TcpConnection> conn) {
        accept_control(std::move(conn));
      });
  if (config_.http_port != 0) {
    http_listener_ = std::make_unique<transport::TcpListener>(
        mux_, config_.http_port, config_.tcp,
        [this](std::unique_ptr<transport::TcpConnection> conn) {
          accept_http(std::move(conn));
        });
  }
}

std::string RealServerApp::metafile_path(std::uint32_t clip_id) {
  return util::str_cat("/clip/", clip_id, ".ram");
}

void RealServerApp::accept_http(
    std::unique_ptr<transport::TcpConnection> conn) {
  const std::uint64_t id = next_http_id_++;
  transport::TcpConnection* raw = conn.get();
  raw->set_on_chunk(
      [this, id](std::shared_ptr<const net::PayloadMeta> meta, std::int64_t) {
        on_http_chunk(id, std::move(meta));
      });
  raw->set_on_closed([this, id] {
    // Linger (TIME_WAIT-style) so a peer FIN still in flight gets ACKed by
    // the connection rather than vanishing into an unbound port.
    network_.simulator().schedule_in(sec(30),
                                     [this, id] { http_conns_.erase(id); });
  });
  http_conns_[id] = std::move(conn);
}

void RealServerApp::on_http_chunk(
    std::uint64_t id, std::shared_ptr<const net::PayloadMeta> meta) {
  const auto it = http_conns_.find(id);
  if (it == http_conns_.end()) return;
  transport::TcpConnection& conn = *it->second;
  const auto* text = dynamic_cast<const media::RtspTextMeta*>(meta.get());
  if (text == nullptr) return;
  // HTTP cloaking: a client behind a blocked RTSP port speaks RTSP on the
  // web port. An RTSP request line never parses as HTTP (and vice versa).
  if (const auto rtsp_req = rtsp::parse_request(text->text)) {
    promote_http_to_rtsp(id, *rtsp_req);
    return;
  }
  const auto request = rtsp::parse_http_request(text->text);
  rtsp::HttpResponse resp;
  std::uint32_t clip_id = 0;
  std::string path = request ? request->path : "";
  if (path.size() > 4 && path.substr(path.size() - 4) == ".ram") {
    path.resize(path.size() - 4);
  }
  // The web server knows clips, not availability: a clip that exists gets a
  // metafile even when the RealServer can't stream it right now (that
  // failure surfaces at DESCRIBE, as the paper's Fig 10 measured it).
  if (!request || !parse_clip_url(path, clip_id) ||
      find_clip(clip_id) == nullptr) {
    resp.status = 404;
  } else {
    resp.headers.set("Content-Type", "audio/x-pn-realaudio");
    resp.body = rtsp::make_ram_metafile(clip_url(clip_id));
  }
  const std::string wire = resp.serialize();
  conn.send_chunk(static_cast<std::int64_t>(wire.size()),
                  std::make_shared<media::RtspTextMeta>(wire));
  conn.close();  // HTTP/1.0: one request per connection
}

RealServerApp::~RealServerApp() = default;

std::string RealServerApp::clip_url(std::uint32_t clip_id) {
  return util::str_cat("rtsp://server/clip/", clip_id);
}

bool RealServerApp::parse_clip_url(const std::string& url,
                                   std::uint32_t& clip_id) {
  const auto pos = url.rfind("/clip/");
  if (pos == std::string::npos) return false;
  const std::string tail = url.substr(pos + 6);
  std::uint32_t value = 0;
  const auto* begin = tail.data();
  const auto* end = tail.data() + tail.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return false;
  clip_id = value;
  return true;
}

const media::Clip* RealServerApp::find_clip(std::uint32_t clip_id) const {
  for (const auto& clip : catalog_.clips()) {
    if (clip.id() == clip_id) return &clip;
  }
  return nullptr;
}

const StreamSender* RealServerApp::last_sender() const {
  const auto it = sessions_.find(last_session_id_);
  if (it == sessions_.end()) return nullptr;
  return it->second->sender.get();
}

double RealServerApp::last_session_cwnd_bytes() const {
  const auto it = sessions_.find(last_session_id_);
  if (it == sessions_.end()) return 0.0;
  const SessionCtx& ctx = *it->second;
  if (ctx.use_udp || ctx.control == nullptr) return 0.0;
  return ctx.control->cwnd_bytes();
}

double RealServerApp::last_session_pacing_bps() const {
  const auto it = sessions_.find(last_session_id_);
  if (it == sessions_.end()) return 0.0;
  const SessionCtx& ctx = *it->second;
  if (ctx.use_udp || ctx.control == nullptr) return 0.0;
  return ctx.control->pacing_rate_bps();
}

int RealServerApp::last_session_cc_state() const {
  const auto it = sessions_.find(last_session_id_);
  if (it == sessions_.end()) return 0;
  const SessionCtx& ctx = *it->second;
  if (ctx.use_udp || ctx.control == nullptr) return 0;
  return ctx.control->cc_state();
}

std::uint64_t RealServerApp::last_session_tcp_retransmits() const {
  const auto it = sessions_.find(last_session_id_);
  if (it == sessions_.end()) return 0;
  const SessionCtx& ctx = *it->second;
  if (ctx.use_udp || ctx.control == nullptr) return 0;
  return ctx.control->stats().retransmits;
}

RealServerApp::SessionCtx& RealServerApp::adopt_control(
    std::unique_ptr<transport::TcpConnection> conn) {
  auto ctx = std::make_unique<SessionCtx>();
  ctx->id = next_session_id_++;
  ctx->rtsp = rtsp::Session(ctx->id);
  ctx->control = std::move(conn);
  SessionCtx* raw = ctx.get();
  raw->control->set_on_chunk(
      [this, raw](std::shared_ptr<const net::PayloadMeta> meta,
                  std::int64_t) { on_control_chunk(*raw, std::move(meta)); });
  // Deferred with a linger: the close callback runs inside the TcpConnection
  // itself, and a peer FIN may still be in flight (TIME_WAIT semantics).
  // The sender is stopped immediately so no media flows while lingering.
  raw->control->set_on_closed([this, id = raw->id] {
    const auto it = sessions_.find(id);
    if (it != sessions_.end() && it->second->sender) {
      it->second->sender->stop();
    }
    network_.simulator().schedule_in(sec(30),
                                     [this, id] { destroy_session(id); });
  });
  last_session_id_ = ctx->id;
  sessions_[ctx->id] = std::move(ctx);
  return *raw;
}

void RealServerApp::accept_control(
    std::unique_ptr<transport::TcpConnection> conn) {
  adopt_control(std::move(conn));
}

void RealServerApp::promote_http_to_rtsp(std::uint64_t http_id,
                                         const rtsp::Request& req) {
  const auto it = http_conns_.find(http_id);
  if (it == http_conns_.end()) return;
  auto conn = std::move(it->second);
  http_conns_.erase(it);
  conn->set_on_chunk({});
  conn->set_on_closed({});
  SessionCtx& ctx = adopt_control(std::move(conn));
  send_response(ctx, handle_request(ctx, req));
}

void RealServerApp::destroy_session(std::uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  if (it->second->sender) {
    it->second->sender->stop();
    finished_level_switches_ += it->second->sender->level_switches();
    finished_frames_thinned_ += it->second->sender->frames_thinned();
    finished_frame_packets_sent_ += it->second->sender->frame_packets_sent();
  }
  sessions_.erase(it);
}

std::uint64_t RealServerApp::total_level_switches() const {
  std::uint64_t total = finished_level_switches_;
  for (const auto& [_, ctx] : sessions_) {
    if (ctx->sender) total += ctx->sender->level_switches();
  }
  return total;
}

std::uint64_t RealServerApp::total_frames_thinned() const {
  std::uint64_t total = finished_frames_thinned_;
  for (const auto& [_, ctx] : sessions_) {
    if (ctx->sender) total += ctx->sender->frames_thinned();
  }
  return total;
}

std::uint64_t RealServerApp::total_frame_packets_sent() const {
  std::uint64_t total = finished_frame_packets_sent_;
  for (const auto& [_, ctx] : sessions_) {
    if (ctx->sender) total += ctx->sender->frame_packets_sent();
  }
  return total;
}

void RealServerApp::on_control_chunk(
    SessionCtx& ctx, std::shared_ptr<const net::PayloadMeta> meta) {
  const auto* text = dynamic_cast<const media::RtspTextMeta*>(meta.get());
  if (text == nullptr) return;  // not a control message
  const auto request = rtsp::parse_request(text->text);
  if (!request) {
    rtsp::Response resp;
    resp.status = rtsp::StatusCode::kBadRequest;
    send_response(ctx, resp);
    return;
  }
  send_response(ctx, handle_request(ctx, *request));
}

void RealServerApp::send_response(SessionCtx& ctx,
                                  const rtsp::Response& resp) {
  // Overloaded daemon: the request was read, but the reply waits in the
  // admission backlog until the stall window passes.
  if (network_.simulator().now() < config_.response_stall_until) {
    const std::uint64_t id = ctx.id;
    network_.simulator().schedule_at(
        config_.response_stall_until, [this, id, resp] {
          const auto it = sessions_.find(id);
          if (it == sessions_.end() || !it->second->control->established() ||
              it->second->control->closing()) {
            return;  // the client gave up waiting
          }
          send_response(*it->second, resp);
        });
    return;
  }
  const std::string wire = resp.serialize();
  ctx.control->send_chunk(
      static_cast<std::int64_t>(wire.size()),
      std::make_shared<media::RtspTextMeta>(wire));
}

rtsp::Response RealServerApp::handle_request(SessionCtx& ctx,
                                             const rtsp::Request& req) {
  rtsp::Response resp;
  resp.cseq = req.cseq;
  resp.headers.set("Session", ctx.rtsp.id_string());

  if (!ctx.rtsp.apply(req.method)) {
    resp.status = rtsp::StatusCode::kBadRequest;
    return resp;
  }

  switch (req.method) {
    case rtsp::Method::kOptions:
      resp.headers.set("Public",
                       "OPTIONS, DESCRIBE, SETUP, PLAY, PAUSE, TEARDOWN");
      return resp;

    case rtsp::Method::kDescribe: {
      std::uint32_t clip_id = 0;
      if (!parse_clip_url(req.url, clip_id)) {
        resp.status = rtsp::StatusCode::kBadRequest;
        return resp;
      }
      const media::Clip* clip = find_clip(clip_id);
      if (clip == nullptr || unavailable_.count(clip_id) > 0) {
        resp.status = rtsp::StatusCode::kNotFound;
        return resp;
      }
      ctx.clip = clip;
      std::string body = util::str_cat(
          "clip=", clip->id(), "\nduration=", to_seconds(clip->duration()),
          "\nlevels=");
      for (std::size_t i = 0; i < clip->levels().size(); ++i) {
        if (i > 0) body += ',';
        body += util::format_double(
            to_kbps(clip->level(i).total_bandwidth), 0);
      }
      body += '\n';
      resp.body = std::move(body);
      return resp;
    }

    case rtsp::Method::kSetup: {
      if (ctx.clip == nullptr) {
        resp.status = rtsp::StatusCode::kBadRequest;
        return resp;
      }
      const auto transport_hdr = req.headers.get("Transport");
      const auto spec = transport_hdr
                            ? rtsp::parse_transport(*transport_hdr)
                            : std::nullopt;
      if (!spec) {
        resp.status = rtsp::StatusCode::kUnsupportedTransport;
        return resp;
      }
      if (const auto bw = req.headers.get("Bandwidth")) {
        ctx.client_bandwidth = std::max(8000.0, std::atof(bw->c_str()));
      }
      ctx.use_udp = spec->use_udp;
      if (ctx.use_udp) {
        ctx.data_socket = std::make_unique<transport::UdpSocket>(mux_);
        SessionCtx* raw = &ctx;
        ctx.data_socket->set_on_datagram(
            [this, raw](net::Endpoint from,
                        std::shared_ptr<const net::PayloadMeta> meta,
                        std::int32_t) {
              on_data_datagram(*raw, from, std::move(meta));
            });
        ctx.channel = std::make_unique<UdpMediaChannel>(
            *ctx.data_socket,
            net::Endpoint{ctx.control->remote_endpoint().node,
                          static_cast<net::Port>(spec->client_port)});
        resp.headers.set(
            "Transport",
            util::str_cat(spec->serialize(), ";server_port=",
                          ctx.data_socket->local_port()));
      } else {
        ctx.channel = std::make_unique<TcpMediaChannel>(*ctx.control);
        resp.headers.set("Transport", spec->serialize());
      }
      return resp;
    }

    case rtsp::Method::kPlay: {
      if (ctx.clip == nullptr || ctx.channel == nullptr) {
        resp.status = rtsp::StatusCode::kBadRequest;
        return resp;
      }
      if (ctx.sender == nullptr) {
        const std::size_t level =
            ctx.clip->best_level_for(ctx.client_bandwidth);
        StreamSenderConfig sender_cfg = config_.sender;
        if (sender_cfg.adaptive_packet_size) {
          sender_cfg.max_payload = payload_for_bandwidth(ctx.client_bandwidth);
        }
        std::unique_ptr<transport::RateController> controller;
        if (ctx.use_udp) {
          controller = make_controller(
              config_.udp_control,
              ctx.clip->level(level).total_bandwidth * 1.2,
              std::min(ctx.client_bandwidth * 1.25,
                       ctx.clip->levels().back().total_bandwidth * 1.5));
        }
        ctx.sender = std::make_unique<StreamSender>(
            network_.simulator(), *ctx.clip, level, *ctx.channel,
            std::move(controller), sender_cfg, rng_.fork(ctx.id));
        ctx.sender->start();
      }
      return resp;
    }

    case rtsp::Method::kPause: {
      if (ctx.sender) ctx.sender->stop();
      return resp;
    }

    case rtsp::Method::kTeardown: {
      if (ctx.sender) ctx.sender->stop();
      // The control connection closes from the client side; the session is
      // reaped in the close callback.
      return resp;
    }

    case rtsp::Method::kSetParameter:
      return resp;
  }
  resp.status = rtsp::StatusCode::kInternalError;
  return resp;
}

void RealServerApp::on_data_datagram(
    SessionCtx& ctx, net::Endpoint /*from*/,
    std::shared_ptr<const net::PayloadMeta> meta) {
  if (ctx.sender == nullptr) return;
  if (const auto* feedback =
          dynamic_cast<const media::FeedbackMeta*>(meta.get())) {
    ctx.sender->on_feedback(*feedback);
    return;
  }
  if (const auto* repair =
          dynamic_cast<const media::RepairRequestMeta*>(meta.get())) {
    ctx.sender->on_repair_request(*repair);
  }
}

}  // namespace rv::server
