// TCP over the simulated network.
//
// Full-duplex byte-stream connection with:
//  - three-way handshake (SYN / SYN-ACK / ACK) with retry timers
//  - MSS segmentation, cumulative ACKs, out-of-order reassembly
//  - 3-dupACK fast retransmit and NewReno fast recovery with partial-ACK
//    retransmission; the congestion window itself is owned by a pluggable
//    CongestionControl backend (Reno / CUBIC / BBR, congestion_control.h)
//  - Jacobson/Karn RTT estimation and exponential RTO backoff
//  - receiver-advertised-window flow control
//  - FIN-based close
//
// Applications write *chunks* (e.g. a packetised video frame per write); the
// receiver re-frames the byte stream and fires one callback per chunk, in
// order, exactly once — the framing survives loss, reordering and
// retransmission because chunk boundaries ride on the segments that carry
// the chunk's final byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "transport/congestion_control.h"
#include "transport/mux.h"
#include "util/units.h"

namespace rv::transport {

struct TcpConfig {
  std::int32_t mss = 1000;                    // max payload per segment
  std::int64_t recv_window = 256 * 1024;      // advertised window (bytes)
  std::int32_t initial_cwnd_segments = 2;
  // Cap on the slow-start phase (RFC 2581 allows an arbitrary initial
  // ssthresh; 64 KB is what most 2001-era stacks used). Prevents a massive
  // burst-loss overshoot on the first bandwidth probe.
  std::int64_t initial_ssthresh = 64 * 1024;
  SimTime min_rto = msec(200);
  SimTime initial_rto = sec(3);
  SimTime max_rto = sec(60);
  // Max segments emitted back-to-back per send opportunity; a window
  // opening wider than this is drained via short pacing timers instead of
  // one line-rate burst (NS-2 Reno's "maxburst", prevents post-recovery
  // bursts from overflowing small queues).
  int max_burst_segments = 6;
  // RFC 2018 selective acknowledgements: the receiver reports out-of-order
  // blocks and the sender runs scoreboard-based loss recovery (retransmits
  // every hole, one per ACK, instead of NewReno's one-hole-per-RTT). Off by
  // default: the study models RealSystem-era stacks conservatively.
  bool sack_enabled = false;
  // Congestion-control backend (see congestion_control.h). kReno reproduces
  // the historical inline NewReno logic byte-for-byte and is the study
  // default; kCubic / kBbr re-run the paper's comparisons under modern CC.
  CcAlgorithm cc = CcAlgorithm::kReno;
};

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t bytes_acked = 0;      // sender side
  std::uint64_t bytes_delivered = 0;  // receiver side, in-order app bytes
  std::uint64_t chunks_delivered = 0;
  std::uint64_t recovery_enters = 0;  // fast-recovery episodes entered
};

class TcpConnection : public PacketSink {
 public:
  using ChunkCallback =
      std::function<void(std::shared_ptr<const net::PayloadMeta>,
                         std::int64_t chunk_bytes)>;

  TcpConnection(TransportMux& mux, TcpConfig config);
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Active open: binds an ephemeral local port and starts the handshake.
  void connect(net::Endpoint remote);

  void set_on_established(std::function<void()> cb) {
    on_established_ = std::move(cb);
  }
  void set_on_chunk(ChunkCallback cb) { on_chunk_ = std::move(cb); }
  void set_on_closed(std::function<void()> cb) { on_closed_ = std::move(cb); }

  // Queues an application chunk of `bytes` (sent as soon as the window
  // allows). `meta` is delivered to the peer with the chunk.
  void send_chunk(std::int64_t bytes,
                  std::shared_ptr<const net::PayloadMeta> meta);

  // Graceful close: FIN is sent after all queued data.
  void close();

  bool established() const { return state_ == State::kEstablished; }
  bool closed() const { return state_ == State::kClosed; }
  // True once a close is underway (FIN pending/sent) or done: writes are no
  // longer legal even though the state may still read as established.
  bool closing() const {
    return fin_pending_ || fin_sent_ || state_ == State::kClosed;
  }
  // Application bytes accepted but not yet cumulatively acknowledged.
  std::int64_t backlog_bytes() const {
    return static_cast<std::int64_t>(app_write_offset_ - snd_una_);
  }
  double smoothed_rtt_seconds() const { return srtt_sec_; }
  double cwnd_bytes() const { return cc_->cwnd(); }
  double ssthresh_bytes() const { return cc_->ssthresh(); }
  // Effective pacing rate in bytes/sec: the backend's hint when it has one,
  // else the historical cwnd-per-srtt rate the burst pacer uses.
  double pacing_rate_bps() const {
    const double hint = cc_->pacing_rate(srtt_sec_);
    return hint > 0.0 ? hint : cc_->cwnd() / std::max(srtt_sec_, 0.010);
  }
  // Backend state as a small integer (BbrCC::State; 0 for Reno/CUBIC).
  int cc_state() const { return cc_->state_code(); }
  std::int64_t flight_bytes() const { return flight_size(); }
  bool in_fast_recovery() const { return in_recovery_; }
  SimTime current_rto() const { return rto_; }
  const TcpStats& stats() const { return stats_; }
  net::Endpoint local_endpoint() const { return {mux_.node_id(), local_port_}; }
  net::Endpoint remote_endpoint() const { return remote_; }

  // PacketSink:
  void on_packet(net::Packet packet) override;

 private:
  friend class TcpListener;

  enum class State {
    kIdle,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,    // our FIN sent, awaiting its ACK
    kClosed,
  };

  struct Segment {
    std::int32_t len = 0;
    SimTime sent_at = 0;
    // Connection-wide delivered_bytes_ when first sent: anchors BBR-style
    // delivery-rate samples (delivered-since-send over time-since-send) so
    // recovery catch-up ACKs cannot fabricate bandwidth.
    std::uint64_t delivered_at_send = 0;
    bool retransmitted = false;
    bool fin = false;
    bool sacked = false;            // SACK scoreboard
    bool retx_this_recovery = false;
    bool app_limited = false;       // send drained the app backlog
  };

  // Passive-open construction used by TcpListener.
  void accept_from(net::Port local_port, net::Endpoint remote,
                   const net::TcpHeader& syn);

  void send_segment(std::uint64_t seq, const Segment& seg, bool is_retx);
  void send_control(bool syn, bool fin_unused = false);
  void send_pure_ack();
  void try_send();
  void maybe_send_fin();

  void retry_syn();
  void handle_handshake(const net::Packet& packet);
  void handle_ack(const net::Packet& packet);
  void handle_data(const net::Packet& packet);

  void enter_established();
  // Every state change funnels through here so the transition lands in the
  // play's trace (obs::Code::kTcpState).
  void set_state(State next);
  void apply_sack_blocks(const net::TcpHeader& header);
  // SACK pipe estimate and hole retransmission during recovery.
  std::int64_t sack_pipe() const;
  bool retransmit_next_sack_hole();
  void rescue_lost_retransmission();
  // RFC 6675 DupThresh-style reordering margin: a segment is deemed lost
  // only once the SACK frontier is this many bytes past its end.
  std::uint64_t sack_reorder_margin() const {
    return 2 * static_cast<std::uint64_t>(config_.mss);
  }
  void sack_recovery_send();
  void on_rto();
  void arm_rto();
  void disarm_rto();
  // Feeds the Jacobson/Karn estimator (always) and the congestion-control
  // backend (only when `feed_cc`: samples re-measured after an RTO go-back
  // are ambiguous — an ACK elicited by a pre-timeout copy still in flight
  // can look like a ~one-way-delay RTT and would poison a model-based
  // backend's min-RTT filter for a full window).
  void update_rtt(SimTime sample, bool feed_cc);
  // Feeds the backend one delivery-rate sample for a segment the receiver
  // just reported (cumulative ACK or first SACK): delivered-since-send over
  // time-since-send. Skips retransmitted segments (ambiguous send time) and
  // Karn-ambiguous sequence ranges. Sampling at SACK time keeps the bw
  // filter fed through recovery episodes, which is what lets a model-based
  // backend hold its estimate while loss recovery is in progress.
  void sample_delivery_rate(const Segment& seg, std::uint64_t seg_end);
  std::int64_t flight_size() const {
    return static_cast<std::int64_t>(snd_nxt_ - snd_una_);
  }
  void finish_close();

  TransportMux& mux_;
  TcpConfig config_;
  State state_ = State::kIdle;
  net::Port local_port_ = 0;
  net::Endpoint remote_;
  bool bound_connected_ = false;

  // --- sender ---
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t app_write_offset_ = 0;
  std::map<std::uint64_t, Segment> unacked_;           // seq -> segment
  std::map<std::uint64_t, std::shared_ptr<const net::PayloadMeta>>
      outgoing_chunks_;                                // end offset -> meta
  std::unique_ptr<CongestionControl> cc_;              // owns cwnd/ssthresh
  std::int64_t peer_window_ = 64 * 1024;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recovery_point_ = 0;
  // Bytes below this were in flight at an RTO go-back; their re-sends carry
  // Karn-ambiguous timing (see update_rtt).
  std::uint64_t karn_ambiguous_until_ = 0;
  // Bytes known to have reached the receiver: cumulative ACK advances plus
  // bytes first reported via SACK. Unlike bytes_acked this grows smoothly
  // through a recovery episode — a healing cumulative jump releases bytes
  // that were already credited when SACKed — which is what makes it the
  // right numerator for delivery-rate samples.
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t highest_sacked_ = 0;  // SACK/FACK frontier
  bool fin_pending_ = false;
  bool fin_sent_ = false;

  // --- RTT / RTO ---
  double srtt_sec_ = 0.0;
  double rttvar_sec_ = 0.0;
  bool have_rtt_ = false;
  SimTime rto_ = 0;
  sim::EventId rto_event_ = sim::kInvalidEventId;
  sim::EventId pacing_event_ = sim::kInvalidEventId;

  // --- receiver ---
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::int32_t> out_of_order_;  // seq -> len
  std::map<std::uint64_t, std::shared_ptr<const net::PayloadMeta>>
      pending_chunks_;                                  // end offset -> meta
  std::uint64_t last_chunk_delivered_end_ = 0;
  // Recent out-of-order arrivals, most recent first (RFC 2018 recency rule:
  // the SACK option leads with the block containing the newest segment and
  // repeats the most recently reported blocks — see send_pure_ack).
  std::vector<std::uint64_t> recent_oob_seqs_;
  bool peer_fin_received_ = false;

  // --- handshake ---
  sim::EventId handshake_event_ = sim::kInvalidEventId;
  int handshake_tries_ = 0;

  TcpStats stats_;
  std::function<void()> on_established_;
  ChunkCallback on_chunk_;
  std::function<void()> on_closed_;
};

// Accepts incoming connections on a local port; one TcpConnection is created
// per remote endpoint's SYN.
class TcpListener : public PacketSink {
 public:
  using AcceptCallback =
      std::function<void(std::unique_ptr<TcpConnection>)>;

  TcpListener(TransportMux& mux, net::Port port, TcpConfig config,
              AcceptCallback on_accept);
  ~TcpListener() override;

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  void on_packet(net::Packet packet) override;

 private:
  TransportMux& mux_;
  net::Port port_;
  TcpConfig config_;
  AcceptCallback on_accept_;
};

}  // namespace rv::transport
