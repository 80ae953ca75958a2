// RealServer analog: accepts RTSP control connections, negotiates transport,
// and streams clips through per-session StreamSenders.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "media/catalog.h"
#include "media/stream_wire.h"
#include "net/network.h"
#include "rtsp/message.h"
#include "rtsp/session.h"
#include "server/stream_sender.h"
#include "transport/mux.h"
#include "transport/tcp.h"
#include "transport/udp.h"
#include "util/rng.h"

namespace rv::server {

enum class CongestionControlKind { kAimd, kTfrc, kNone };

struct RealServerConfig {
  StreamSenderConfig sender;
  transport::TcpConfig tcp;
  CongestionControlKind udp_control = CongestionControlKind::kAimd;
  net::Port rtsp_port = net::kRtspPort;
  net::Port http_port = 80;  // .ram metafiles (§II.A); 0 disables
  // Overload (accept-but-stall) fault: RTSP responses are held back until
  // this sim time — connections are accepted, the daemon just doesn't get to
  // them. 0 means healthy.
  SimTime response_stall_until = 0;
};

class RealServerApp {
 public:
  RealServerApp(net::Network& network, net::NodeId node,
                const media::Catalog& catalog, RealServerConfig config,
                util::Rng rng);
  ~RealServerApp();

  RealServerApp(const RealServerApp&) = delete;
  RealServerApp& operator=(const RealServerApp&) = delete;

  // Clips currently un-servable (the paper's ~10% availability gaps);
  // DESCRIBE returns 404 for them.
  void set_unavailable(std::set<std::uint32_t> clip_ids) {
    unavailable_ = std::move(clip_ids);
  }

  net::NodeId node_id() const { return mux_.node_id(); }
  std::size_t active_sessions() const { return sessions_.size(); }

  // Introspection for tests/benches: the most recently created session's
  // sender (nullptr when none).
  const StreamSender* last_sender() const;
  // Telemetry probes: congestion state of the most recent session's control
  // TCP connection. Interleaved-TCP media rides the control connection, so
  // its cwnd/retransmit counts describe the media path; UDP sessions report
  // 0 (their loss shows up in the per-link drop series instead).
  double last_session_cwnd_bytes() const;
  std::uint64_t last_session_tcp_retransmits() const;
  // Effective TCP pacing rate (bytes/sec) and congestion-control backend
  // state (BbrCC::State as an int; 0 for Reno/CUBIC) — telemetry probes,
  // 0 for UDP sessions like cwnd above.
  double last_session_pacing_bps() const;
  int last_session_cc_state() const;
  // Aggregate SureStream switches across all sessions, including finished
  // ones.
  std::uint64_t total_level_switches() const;
  std::uint64_t total_frames_thinned() const;
  std::uint64_t total_frame_packets_sent() const;

  // URL for a clip on this server.
  static std::string clip_url(std::uint32_t clip_id);
  // Parses "/clip/<id>" (or full rtsp:// URL); returns false on mismatch.
  static bool parse_clip_url(const std::string& url, std::uint32_t& clip_id);
  // The web path of a clip's .ram metafile.
  static std::string metafile_path(std::uint32_t clip_id);

 private:
  struct SessionCtx;

  void accept_control(std::unique_ptr<transport::TcpConnection> conn);
  void accept_http(std::unique_ptr<transport::TcpConnection> conn);
  void on_http_chunk(std::uint64_t id,
                     std::shared_ptr<const net::PayloadMeta> meta);
  // RTSP arrived on the web port (client-side HTTP cloaking): upgrade the
  // HTTP connection into a full RTSP session.
  void promote_http_to_rtsp(std::uint64_t http_id, const rtsp::Request& req);
  void on_control_chunk(SessionCtx& ctx,
                        std::shared_ptr<const net::PayloadMeta> meta);
  SessionCtx& adopt_control(std::unique_ptr<transport::TcpConnection> conn);
  rtsp::Response handle_request(SessionCtx& ctx, const rtsp::Request& req);
  void send_response(SessionCtx& ctx, const rtsp::Response& resp);
  void on_data_datagram(SessionCtx& ctx, net::Endpoint from,
                        std::shared_ptr<const net::PayloadMeta> meta);
  const media::Clip* find_clip(std::uint32_t clip_id) const;
  void destroy_session(std::uint64_t id);

  net::Network& network_;
  transport::TransportMux mux_;
  const media::Catalog& catalog_;
  RealServerConfig config_;
  util::Rng rng_;
  std::unique_ptr<transport::TcpListener> listener_;
  std::unique_ptr<transport::TcpListener> http_listener_;
  std::map<std::uint64_t, std::unique_ptr<transport::TcpConnection>>
      http_conns_;
  std::uint64_t next_http_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<SessionCtx>> sessions_;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t last_session_id_ = 0;
  std::uint64_t finished_level_switches_ = 0;
  std::uint64_t finished_frames_thinned_ = 0;
  std::uint64_t finished_frame_packets_sent_ = 0;
  std::set<std::uint32_t> unavailable_;
};

}  // namespace rv::server
