#include "transport/tcp.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace rv::transport {
namespace {

constexpr int kMaxHandshakeTries = 6;

}  // namespace

TcpConnection::TcpConnection(TransportMux& mux, TcpConfig config)
    : mux_(mux), config_(config) {
  RV_CHECK_GT(config_.mss, 0);
  cc_ = make_congestion_control(config_.cc, config_.mss,
                                config_.initial_cwnd_segments,
                                config_.initial_ssthresh);
  rto_ = config_.initial_rto;
}

TcpConnection::~TcpConnection() {
  disarm_rto();
  mux_.simulator().cancel(handshake_event_);
  mux_.simulator().cancel(pacing_event_);
  if (bound_connected_) {
    mux_.unbind_connected(net::Protocol::kTcp, local_port_, remote_);
  }
}

void TcpConnection::connect(net::Endpoint remote) {
  RV_CHECK(state_ == State::kIdle);
  remote_ = remote;
  local_port_ = mux_.allocate_port();
  mux_.bind_connected(net::Protocol::kTcp, local_port_, remote_, this);
  bound_connected_ = true;
  set_state(State::kSynSent);
  handshake_tries_ = 0;
  send_control(/*syn=*/true);
  handshake_event_ =
      mux_.simulator().schedule_in(rto_, [this] { retry_syn(); });
}

void TcpConnection::retry_syn() {
  handshake_event_ = sim::kInvalidEventId;
  if (state_ != State::kSynSent) return;
  if (++handshake_tries_ >= kMaxHandshakeTries) {
    finish_close();
    return;
  }
  send_control(/*syn=*/true);
  handshake_event_ = mux_.simulator().schedule_in(
      rto_ * (std::int64_t{1} << handshake_tries_),
      [this] { retry_syn(); });
}

void TcpConnection::accept_from(net::Port local_port, net::Endpoint remote,
                                const net::TcpHeader& syn) {
  (void)syn;
  RV_CHECK(state_ == State::kIdle);
  local_port_ = local_port;
  remote_ = remote;
  mux_.bind_connected(net::Protocol::kTcp, local_port_, remote_, this);
  bound_connected_ = true;
  set_state(State::kSynReceived);
  // SYN-ACK.
  net::Packet p;
  p.dst = remote_.node;
  p.dst_port = remote_.port;
  p.src_port = local_port_;
  p.proto = net::Protocol::kTcp;
  p.size_bytes = net::kTcpHeaderBytes;
  p.tcp.syn = true;
  p.tcp.ack_flag = true;
  p.tcp.ack = 0;
  p.tcp.window_bytes = config_.recv_window;
  mux_.send(std::move(p));
}

void TcpConnection::send_control(bool syn, bool /*fin_unused*/) {
  net::Packet p;
  p.dst = remote_.node;
  p.dst_port = remote_.port;
  p.src_port = local_port_;
  p.proto = net::Protocol::kTcp;
  p.size_bytes = net::kTcpHeaderBytes;
  p.tcp.syn = syn;
  p.tcp.window_bytes = config_.recv_window;
  if (state_ == State::kEstablished || state_ == State::kFinWait) {
    p.tcp.ack_flag = true;
    p.tcp.ack = rcv_nxt_;
  }
  mux_.send(std::move(p));
}

void TcpConnection::send_pure_ack() {
  net::Packet p;
  p.dst = remote_.node;
  p.dst_port = remote_.port;
  p.src_port = local_port_;
  p.proto = net::Protocol::kTcp;
  p.size_bytes = net::kTcpHeaderBytes;
  p.tcp.ack_flag = true;
  p.tcp.ack = rcv_nxt_;
  p.tcp.window_bytes = config_.recv_window;
  if (config_.sack_enabled) {
    // RFC 2018: report up to 3 out-of-order blocks (coalesced), with the
    // block containing the most recently arrived segment first — so every
    // new arrival is reported even when more than 3 holes exist. (Without
    // the recency rule, blocks past the third go unreported until earlier
    // holes heal, and then surface as one large burst.)
    std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
    for (const auto& [seq, len] : out_of_order_) {
      const std::uint64_t end = seq + static_cast<std::uint64_t>(len);
      if (!blocks.empty() && seq <= blocks.back().second) {
        blocks.back().second = std::max(blocks.back().second, end);
      } else {
        blocks.emplace_back(seq, end);
      }
    }
    std::vector<bool> emitted(blocks.size(), false);
    for (const std::uint64_t recent : recent_oob_seqs_) {
      if (p.tcp.sack_blocks.size() == 3) break;
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (!emitted[i] && blocks[i].first <= recent &&
            recent < blocks[i].second) {
          emitted[i] = true;
          p.tcp.sack_blocks.push_back(blocks[i]);
          break;
        }
      }
    }
    for (std::size_t i = 0;
         i < blocks.size() && p.tcp.sack_blocks.size() < 3; ++i) {
      if (!emitted[i]) p.tcp.sack_blocks.push_back(blocks[i]);
    }
  }
  mux_.send(std::move(p));
}

void TcpConnection::send_chunk(std::int64_t bytes,
                               std::shared_ptr<const net::PayloadMeta> meta) {
  RV_CHECK_GT(bytes, 0);
  RV_CHECK(state_ != State::kClosed && !fin_pending_)
      << "write after close";
  app_write_offset_ += static_cast<std::uint64_t>(bytes);
  outgoing_chunks_[app_write_offset_] = std::move(meta);
  if (state_ == State::kEstablished) try_send();
}

void TcpConnection::close() {
  if (state_ == State::kClosed || fin_pending_ || fin_sent_) return;
  fin_pending_ = true;
  if (state_ == State::kEstablished) {
    try_send();
    maybe_send_fin();
  } else if (state_ == State::kIdle) {
    finish_close();
  }
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_) return;
  if (snd_nxt_ < app_write_offset_) return;  // data still to send
  // FIN occupies one sequence number.
  Segment seg;
  seg.len = 0;
  seg.fin = true;
  seg.sent_at = mux_.simulator().now();
  seg.delivered_at_send = delivered_bytes_;
  seg.app_limited = true;  // a FIN only goes out once the backlog drained
  const std::uint64_t seq = snd_nxt_;
  snd_nxt_ += 1;
  unacked_[seq] = seg;
  fin_sent_ = true;
  set_state(State::kFinWait);

  net::Packet p;
  p.dst = remote_.node;
  p.dst_port = remote_.port;
  p.src_port = local_port_;
  p.proto = net::Protocol::kTcp;
  p.size_bytes = net::kTcpHeaderBytes;
  p.tcp.seq = seq;
  p.tcp.fin = true;
  p.tcp.ack_flag = true;
  p.tcp.ack = rcv_nxt_;
  p.tcp.window_bytes = config_.recv_window;
  mux_.send(std::move(p));
  arm_rto();
}

void TcpConnection::send_segment(std::uint64_t seq, const Segment& seg,
                                 bool is_retx) {
  net::Packet p;
  p.dst = remote_.node;
  p.dst_port = remote_.port;
  p.src_port = local_port_;
  p.proto = net::Protocol::kTcp;
  p.size_bytes = net::kTcpHeaderBytes + seg.len;
  p.tcp.seq = seq;
  p.tcp.fin = seg.fin;
  p.tcp.ack_flag = state_ != State::kSynSent;
  p.tcp.ack = rcv_nxt_;
  p.tcp.window_bytes = config_.recv_window;
  // Chunk boundaries that fall inside (seq, seq+len].
  if (seg.len > 0) {
    auto it = outgoing_chunks_.upper_bound(seq);
    const std::uint64_t seg_end = seq + static_cast<std::uint64_t>(seg.len);
    while (it != outgoing_chunks_.end() && it->first <= seg_end) {
      p.chunks.push_back({it->first, it->second});
      ++it;
    }
  }
  ++stats_.segments_sent;
  if (is_retx) {
    ++stats_.retransmits;
    obs::count(obs::Counter::kTcpRetransmits);
  }
  mux_.send(std::move(p));
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished && state_ != State::kFinWait) return;
  const auto window = static_cast<std::int64_t>(
      std::min(cc_->cwnd(), static_cast<double>(peer_window_)));
  // No new data during fast recovery: retransmitted holes plus the data
  // already in flight fill the pipe; adding more while the bottleneck queue
  // is shedding load compounds the loss epoch. (More conservative than
  // RFC 2582 window inflation, and stable under multi-packet loss bursts.)
  if (in_recovery_) return;
  int emitted = 0;
  while (snd_nxt_ < app_write_offset_ &&
         emitted < config_.max_burst_segments) {
    const std::int64_t in_flight = flight_size();
    if (in_flight >= window) break;
    const std::int64_t room = window - in_flight;
    const auto available =
        static_cast<std::int64_t>(app_write_offset_ - snd_nxt_);
    const std::int32_t len = static_cast<std::int32_t>(
        std::min<std::int64_t>({config_.mss, room, available}));
    if (len <= 0) break;
    Segment seg;
    seg.len = len;
    seg.sent_at = mux_.simulator().now();
    seg.delivered_at_send = delivered_bytes_;
    const std::uint64_t seq = snd_nxt_;
    snd_nxt_ += static_cast<std::uint64_t>(len);
    seg.app_limited = snd_nxt_ >= app_write_offset_;
    unacked_[seq] = seg;
    send_segment(seq, seg, /*is_retx=*/false);
    ++emitted;
  }
  if (emitted == config_.max_burst_segments &&
      snd_nxt_ < app_write_offset_ && flight_size() < window &&
      pacing_event_ == sim::kInvalidEventId) {
    // More window available than the burst cap: pace the rest out at the
    // backend's rate hint when it has one (BBR), else at roughly the flow's
    // current rate (cwnd per srtt — the historical Reno behavior).
    const double hint = cc_->pacing_rate(srtt_sec_);
    const double rate = hint > 0.0
        ? hint
        : cc_->cwnd() / std::max(srtt_sec_, 0.010);  // bytes per second
    const auto delay = std::max<SimTime>(
        msec(1), seconds_to_sim(static_cast<double>(config_.mss) *
                                config_.max_burst_segments / rate));
    pacing_event_ = mux_.simulator().schedule_in(delay, [this] {
      pacing_event_ = sim::kInvalidEventId;
      try_send();
    });
  }
  if (!unacked_.empty() && rto_event_ == sim::kInvalidEventId) arm_rto();
  maybe_send_fin();
}

void TcpConnection::on_packet(net::Packet packet) {
  if (state_ == State::kClosed) {
    // TIME_WAIT-style courtesy: keep acknowledging a peer still
    // retransmitting its FIN (or stray data) so it can finish closing.
    if (packet.tcp.fin || packet.payload_bytes() > 0) {
      if (packet.tcp.fin) {
        rcv_nxt_ = std::max(rcv_nxt_, packet.tcp.seq + 1);
      }
      send_pure_ack();
    }
    return;
  }
  if (packet.tcp.syn) {
    handle_handshake(packet);
    return;
  }
  if (state_ == State::kSynReceived && (packet.tcp.ack_flag ||
                                        packet.payload_bytes() > 0)) {
    // Final handshake ACK (or first data standing in for a lost ACK).
    enter_established();
  }
  if (packet.tcp.ack_flag) handle_ack(packet);
  if (packet.payload_bytes() > 0 || packet.tcp.fin) handle_data(packet);
}

void TcpConnection::handle_handshake(const net::Packet& packet) {
  if (state_ == State::kSynSent && packet.tcp.ack_flag) {
    // SYN-ACK — we're up.
    mux_.simulator().cancel(handshake_event_);
    handshake_event_ = sim::kInvalidEventId;
    peer_window_ = std::max<std::int64_t>(packet.tcp.window_bytes, 1);
    enter_established();
    send_pure_ack();
    try_send();
    return;
  }
  if (state_ == State::kSynReceived && !packet.tcp.ack_flag) {
    // Duplicate SYN — re-send SYN-ACK.
    net::Packet p;
    p.dst = remote_.node;
    p.dst_port = remote_.port;
    p.src_port = local_port_;
    p.proto = net::Protocol::kTcp;
    p.size_bytes = net::kTcpHeaderBytes;
    p.tcp.syn = true;
    p.tcp.ack_flag = true;
    p.tcp.window_bytes = config_.recv_window;
    mux_.send(std::move(p));
  }
}

void TcpConnection::set_state(State next) {
  if (next == state_) return;
  obs::emit(mux_.simulator().now(), obs::Code::kTcpState,
            static_cast<std::uint64_t>(state_),
            static_cast<std::uint64_t>(next));
  state_ = next;
}

void TcpConnection::enter_established() {
  if (state_ == State::kEstablished || state_ == State::kFinWait) return;
  set_state(State::kEstablished);
  if (on_established_) on_established_();
}

void TcpConnection::apply_sack_blocks(const net::TcpHeader& header) {
  if (!config_.sack_enabled || header.sack_blocks.empty()) return;
  for (const auto& [start, end] : header.sack_blocks) {
    // Mark every fully covered segment.
    for (auto it = unacked_.lower_bound(start); it != unacked_.end(); ++it) {
      const std::uint64_t seg_end =
          it->first + static_cast<std::uint64_t>(it->second.len) +
          (it->second.fin ? 1 : 0);
      if (seg_end > end) break;
      if (!it->second.sacked) {
        it->second.sacked = true;
        delivered_bytes_ += static_cast<std::uint64_t>(it->second.len);
        // First SACK of this segment is the receiver reporting its arrival.
        sample_delivery_rate(it->second, seg_end);
      }
    }
    highest_sacked_ = std::max(highest_sacked_, end);
  }
}

std::int64_t TcpConnection::sack_pipe() const {
  // Data believed in flight: unacked segments that are neither SACKed nor
  // deemed lost, plus any lost segments re-sent during this recovery. A
  // segment is deemed lost per the RFC 6675 DupThresh rule, approximated
  // FACK-style: the SACK frontier sits at least DupThresh-1 segments past
  // its end. The margin keeps mild reordering (jitter swapping adjacent
  // packets) from being misread as loss.
  const std::uint64_t margin = sack_reorder_margin();
  std::int64_t pipe = 0;
  for (const auto& [seq, seg] : unacked_) {
    if (seg.sacked) continue;
    const std::uint64_t seg_end = seq + static_cast<std::uint64_t>(seg.len);
    const bool lost =
        seg_end + margin <= highest_sacked_ && !seg.retx_this_recovery;
    if (lost) continue;
    pipe += seg.len;
  }
  return pipe;
}

void TcpConnection::rescue_lost_retransmission() {
  // A retransmitted hole is invisible to SACK-based loss detection: if the
  // retx itself is lost, nothing below the frontier ever marks it again and
  // only the RTO would repair it. When the head hole's retransmission has
  // been out longer than the smoothed RTT without being covered, assume it
  // was lost and make it eligible for another retransmission.
  const auto head = unacked_.find(snd_una_);
  if (head == unacked_.end() || head->second.sacked ||
      !head->second.retx_this_recovery || head->second.fin) {
    return;
  }
  if (to_seconds(mux_.simulator().now() - head->second.sent_at) > srtt_sec_) {
    head->second.retx_this_recovery = false;
  }
}

bool TcpConnection::retransmit_next_sack_hole() {
  const std::uint64_t margin = sack_reorder_margin();
  for (auto& [seq, seg] : unacked_) {
    const std::uint64_t seg_end = seq + static_cast<std::uint64_t>(seg.len);
    if (seg_end + margin > highest_sacked_) break;
    if (seg.sacked || seg.retx_this_recovery || seg.fin) continue;
    seg.retransmitted = true;
    seg.retx_this_recovery = true;
    seg.sent_at = mux_.simulator().now();
    obs::emit(mux_.simulator().now(), obs::Code::kSackRetransmit, seq,
              highest_sacked_);
    obs::count(obs::Counter::kSackRetransmits);
    send_segment(seq, seg, /*is_retx=*/true);
    return true;
  }
  return false;
}

void TcpConnection::sack_recovery_send() {
  const auto window = static_cast<std::int64_t>(
      std::min(cc_->cwnd(), static_cast<double>(peer_window_)));
  for (int guard = 0; guard < config_.max_burst_segments; ++guard) {
    if (sack_pipe() >= window) return;
    if (retransmit_next_sack_hole()) continue;
    // No holes left below the SACK frontier: forward-transmit new data.
    // Pipe excludes lost-but-unrepaired bytes, so under heavy loss it can
    // sit far below the real sequence span; also gating new data on raw
    // flight keeps snd_nxt from racing ahead of what recovery can repair.
    if (static_cast<std::int64_t>(snd_nxt_ - snd_una_) >= window) return;
    if (snd_nxt_ >= app_write_offset_) return;
    const auto available =
        static_cast<std::int64_t>(app_write_offset_ - snd_nxt_);
    const std::int32_t len = static_cast<std::int32_t>(
        std::min<std::int64_t>(config_.mss, available));
    Segment seg;
    seg.len = len;
    seg.sent_at = mux_.simulator().now();
    seg.delivered_at_send = delivered_bytes_;
    seg.retx_this_recovery = true;  // counts into the pipe immediately
    const std::uint64_t seq = snd_nxt_;
    snd_nxt_ += static_cast<std::uint64_t>(len);
    seg.app_limited = snd_nxt_ >= app_write_offset_;
    unacked_[seq] = seg;
    send_segment(seq, seg, /*is_retx=*/false);
  }
}

void TcpConnection::handle_ack(const net::Packet& packet) {
  peer_window_ = std::max<std::int64_t>(packet.tcp.window_bytes, 1);
  apply_sack_blocks(packet.tcp);
  const std::uint64_t ack = packet.tcp.ack;
  if (ack > snd_una_) {
    const std::uint64_t newly_acked = ack - snd_una_;
    stats_.bytes_acked += newly_acked;
    // Drop fully-acked segments. RTT is sampled only from the segment whose
    // end exactly matches this ACK (Karn's rule, plus: a segment that sat
    // blocked behind a retransmitted hole would yield a wildly inflated
    // sample, so cumulative catch-up ACKs are never sampled).
    while (!unacked_.empty()) {
      const auto it = unacked_.begin();
      const std::uint64_t seg_end =
          it->first + static_cast<std::uint64_t>(it->second.len) +
          (it->second.fin ? 1 : 0);
      if (seg_end > ack) break;
      if (!it->second.sacked) {
        delivered_bytes_ += static_cast<std::uint64_t>(it->second.len);
        sample_delivery_rate(it->second, seg_end);
      }
      if (seg_end == ack && !it->second.retransmitted && !in_recovery_) {
        const SimTime interval = mux_.simulator().now() - it->second.sent_at;
        const bool karn_safe = seg_end > karn_ambiguous_until_;
        update_rtt(interval, /*feed_cc=*/karn_safe);
      }
      unacked_.erase(it);
    }
    // Retire transmitted-and-acked chunk metadata.
    outgoing_chunks_.erase(outgoing_chunks_.begin(),
                           outgoing_chunks_.upper_bound(ack));
    snd_una_ = ack;
    dup_acks_ = 0;
    // Conservation: the peer acks only bytes that were sent. The stream
    // starts at sequence 0, so bytes_acked is snd_una_, and the highest
    // sequence sent is snd_nxt_ or, after an RTO rewound snd_nxt_, what it
    // had reached (karn_ambiguous_until_).
    RV_DCHECK(stats_.bytes_acked == snd_una_ &&
              snd_una_ <= std::max(snd_nxt_, karn_ambiguous_until_))
        << "acked " << stats_.bytes_acked << " (snd_una " << snd_una_
        << ") beyond the highest sequence sent "
        << std::max(snd_nxt_, karn_ambiguous_until_);

    // Every snd_una advance reaches the backend (model-based CC accounts
    // delivery even during recovery); window growth while recovering is the
    // backend's call — Reno/CUBIC hold at ssthresh, per the historical code.
    const bool was_in_recovery = in_recovery_;
    CcAck cc_ack;
    cc_ack.now = mux_.simulator().now();
    cc_ack.newly_acked = static_cast<std::int64_t>(newly_acked);
    cc_ack.snd_una = snd_una_;
    cc_ack.snd_nxt = snd_nxt_;
    cc_ack.flight = flight_size();
    cc_ack.in_recovery = was_in_recovery;
    cc_->on_ack(cc_ack);

    if (was_in_recovery) {
      if (ack >= recovery_point_) {
        in_recovery_ = false;
        cc_->on_recovery_exit(cc_ack.now);
        for (auto& [_, seg] : unacked_) seg.retx_this_recovery = false;
      } else if (config_.sack_enabled) {
        // SACK recovery: the scoreboard decides what to (re)send.
        rescue_lost_retransmission();
        sack_recovery_send();
      } else {
        // NewReno partial ACK: retransmit the next hole; cwnd holds at
        // ssthresh (pipe accounting governs what else may be sent).
        const auto it = unacked_.find(snd_una_);
        if (it != unacked_.end()) {
          it->second.retransmitted = true;
          it->second.sent_at = mux_.simulator().now();
          send_segment(it->first, it->second, /*is_retx=*/true);
        }
      }
    }

    if (unacked_.empty()) {
      disarm_rto();
      rto_ = std::max(config_.min_rto,
                      have_rtt_ ? rto_ : config_.initial_rto);
      if (fin_sent_ && state_ == State::kFinWait) finish_close();
    } else {
      arm_rto();
    }
    try_send();
    return;
  }

  // Duplicate ACK (no new data acked, data outstanding, no payload).
  if (ack == snd_una_ && !unacked_.empty() && packet.payload_bytes() == 0 &&
      !packet.tcp.fin) {
    ++dup_acks_;
    // Fast-retransmit trigger. Without SACK: the historical 3-dupACK rule.
    // With SACK: RFC 6675 — also require the scoreboard to deem the head
    // segment lost (SACK frontier a reorder margin past its end), so that
    // jitter-induced reordering alone never fakes a loss signal; the check
    // repeats on every further dupACK as the frontier advances.
    bool trigger = dup_acks_ == 3;
    if (config_.sack_enabled) {
      const auto head = unacked_.begin();
      const std::uint64_t head_end =
          head->first + static_cast<std::uint64_t>(head->second.len) +
          (head->second.fin ? 1 : 0);
      trigger = dup_acks_ >= 3 &&
                head_end + sack_reorder_margin() <= highest_sacked_;
    }
    if (trigger && !in_recovery_) {
      ++stats_.fast_retransmits;
      ++stats_.recovery_enters;
      obs::emit(mux_.simulator().now(), obs::Code::kTcpFastRetransmit,
                snd_una_, static_cast<std::uint64_t>(dup_acks_));
      obs::count(obs::Counter::kCcRecoveryEnters);
      cc_->on_recovery_enter(flight_size(), mux_.simulator().now());
      in_recovery_ = true;
      recovery_point_ = snd_nxt_;
      const auto it = unacked_.find(snd_una_);
      if (it != unacked_.end()) {
        it->second.retransmitted = true;
        it->second.retx_this_recovery = true;
        it->second.sent_at = mux_.simulator().now();
        send_segment(it->first, it->second, /*is_retx=*/true);
      }
      if (config_.sack_enabled) sack_recovery_send();
      arm_rto();
    } else if (dup_acks_ > 3 && in_recovery_) {
      if (config_.sack_enabled) {
        rescue_lost_retransmission();
        sack_recovery_send();
      } else {
        try_send();  // no new data during plain-Reno recovery
      }
    }
  }
}

void TcpConnection::handle_data(const net::Packet& packet) {
  const std::uint64_t seq = packet.tcp.seq;
  const auto len = static_cast<std::uint64_t>(packet.payload_bytes());

  // Stash chunk boundary metadata (idempotent across retransmissions).
  for (const auto& rec : packet.chunks) {
    if (rec.end_offset > last_chunk_delivered_end_) {
      pending_chunks_.emplace(rec.end_offset, rec.meta);
    }
  }

  if (len > 0) {
    const std::uint64_t seg_end = seq + len;
    if (seg_end > rcv_nxt_) {
      if (seq <= rcv_nxt_) {
        rcv_nxt_ = seg_end;
        // Drain any now-contiguous out-of-order segments.
        auto it = out_of_order_.begin();
        while (it != out_of_order_.end() && it->first <= rcv_nxt_) {
          rcv_nxt_ = std::max(
              rcv_nxt_, it->first + static_cast<std::uint64_t>(it->second));
          it = out_of_order_.erase(it);
        }
      } else {
        out_of_order_.emplace(seq, static_cast<std::int32_t>(len));
        recent_oob_seqs_.insert(recent_oob_seqs_.begin(), seq);
        if (recent_oob_seqs_.size() > 8) recent_oob_seqs_.resize(8);
      }
    }
  }

  if (packet.tcp.fin && packet.tcp.seq <= rcv_nxt_ && !peer_fin_received_) {
    peer_fin_received_ = true;
    rcv_nxt_ = std::max(rcv_nxt_, packet.tcp.seq + 1);
  }

  // Deliver complete chunks in order.
  while (!pending_chunks_.empty() &&
         pending_chunks_.begin()->first <= rcv_nxt_) {
    const auto it = pending_chunks_.begin();
    const std::int64_t chunk_bytes =
        static_cast<std::int64_t>(it->first - last_chunk_delivered_end_);
    stats_.bytes_delivered += static_cast<std::uint64_t>(chunk_bytes);
    ++stats_.chunks_delivered;
    last_chunk_delivered_end_ = it->first;
    auto meta = it->second;
    pending_chunks_.erase(it);
    if (on_chunk_) on_chunk_(std::move(meta), chunk_bytes);
  }
  // In order: the application has every byte up to the last chunk's end
  // and nothing past rcv_nxt_, the end of the contiguous data received, and
  // no segment held out of order starts at or before rcv_nxt_.
  RV_DCHECK(stats_.bytes_delivered == last_chunk_delivered_end_ &&
            last_chunk_delivered_end_ <= rcv_nxt_ &&
            (out_of_order_.empty() || out_of_order_.begin()->first > rcv_nxt_))
      << "delivered " << stats_.bytes_delivered << " to offset "
      << last_chunk_delivered_end_ << " with contiguous data to " << rcv_nxt_;

  send_pure_ack();

  if (peer_fin_received_ && !fin_pending_ && !fin_sent_) {
    // Passive close: we close too once the peer is done.
    close();
  }
  if (peer_fin_received_ && fin_sent_ && unacked_.empty()) finish_close();
}

void TcpConnection::arm_rto() {
  disarm_rto();
  rto_event_ = mux_.simulator().schedule_in(rto_, [this] {
    rto_event_ = sim::kInvalidEventId;
    on_rto();
  });
}

void TcpConnection::disarm_rto() {
  if (rto_event_ != sim::kInvalidEventId) {
    mux_.simulator().cancel(rto_event_);
    rto_event_ = sim::kInvalidEventId;
  }
}

void TcpConnection::on_rto() {
  if (unacked_.empty()) return;
  ++stats_.timeouts;
  obs::emit(mux_.simulator().now(), obs::Code::kTcpTimeout, snd_una_,
            static_cast<std::uint64_t>(rto_));
  // The backend sees the pre-clear flight size (what was presumed lost).
  cc_->on_rto(flight_size(), mux_.simulator().now());
  // RFC 2581 §3.1: after a timeout everything in flight is presumed lost.
  // Go back to snd_una and re-send from there under slow start (the
  // receiver's reassembly buffer absorbs any spurious duplicates). A FIN
  // that was in flight is re-queued via fin_sent_.
  bool fin_was_inflight = false;
  for (const auto& [seq, seg] : unacked_) {
    if (seg.fin) fin_was_inflight = true;
    // The go-back wipes the SACK scoreboard, so these bytes will be re-sent
    // and credited to delivered_bytes_ again on their cumulative ACK;
    // un-credit them now to keep delivery-rate numerators honest.
    if (seg.sacked) delivered_bytes_ -= static_cast<std::uint64_t>(seg.len);
  }
  karn_ambiguous_until_ = std::max(karn_ambiguous_until_, snd_nxt_);
  unacked_.clear();
  snd_nxt_ = snd_una_;
  highest_sacked_ = snd_una_;  // the SACK scoreboard is void after go-back
  if (fin_was_inflight) {
    fin_sent_ = false;
    if (state_ == State::kFinWait) set_state(State::kEstablished);
  }
  in_recovery_ = false;
  dup_acks_ = 0;
  rto_ = std::min(rto_ * 2, config_.max_rto);
  // Count the head-of-line re-send as a retransmission for stats.
  ++stats_.retransmits;
  try_send();
  arm_rto();
}

void TcpConnection::sample_delivery_rate(const Segment& seg,
                                         std::uint64_t seg_end) {
  // `delivered_bytes_` already includes this segment's own credit. The
  // send-time anchor plus SACK-time crediting keeps samples honest through
  // recovery: a healing cumulative jump cannot re-count receiver-buffered
  // bytes, and SACKed arrivals keep the filter fed while recovering.
  if (seg.retransmitted || seg_end <= karn_ambiguous_until_) return;
  const SimTime interval = mux_.simulator().now() - seg.sent_at;
  if (interval <= 0) return;
  const double rate =
      static_cast<double>(delivered_bytes_ - seg.delivered_at_send) /
      to_seconds(interval);
  cc_->on_delivery_rate_sample(rate, seg.app_limited, seg.delivered_at_send,
                               delivered_bytes_, mux_.simulator().now());
}

void TcpConnection::update_rtt(SimTime sample, bool feed_cc) {
  const double r = to_seconds(sample);
  if (!have_rtt_) {
    srtt_sec_ = r;
    rttvar_sec_ = r / 2.0;
    have_rtt_ = true;
  } else {
    constexpr double kAlpha = 1.0 / 8.0;
    constexpr double kBeta = 1.0 / 4.0;
    rttvar_sec_ = (1 - kBeta) * rttvar_sec_ + kBeta * std::abs(srtt_sec_ - r);
    srtt_sec_ = (1 - kAlpha) * srtt_sec_ + kAlpha * r;
  }
  const auto rto = seconds_to_sim(srtt_sec_ + 4.0 * rttvar_sec_);
  rto_ = std::clamp(rto, config_.min_rto, config_.max_rto);
  if (feed_cc) cc_->on_rtt_sample(r, mux_.simulator().now());
}

void TcpConnection::finish_close() {
  if (state_ == State::kClosed) return;
  set_state(State::kClosed);
  disarm_rto();
  mux_.simulator().cancel(handshake_event_);
  mux_.simulator().cancel(pacing_event_);
  pacing_event_ = sim::kInvalidEventId;
  if (on_closed_) on_closed_();
}

TcpListener::TcpListener(TransportMux& mux, net::Port port, TcpConfig config,
                         AcceptCallback on_accept)
    : mux_(mux), port_(port), config_(config),
      on_accept_(std::move(on_accept)) {
  mux_.bind(net::Protocol::kTcp, port_, this);
}

TcpListener::~TcpListener() { mux_.unbind(net::Protocol::kTcp, port_); }

void TcpListener::on_packet(net::Packet packet) {
  // Only fresh SYNs reach the listener: established connections are bound on
  // the full 4-tuple, which wins the mux lookup.
  if (!packet.tcp.syn || packet.tcp.ack_flag) return;
  auto conn = std::make_unique<TcpConnection>(mux_, config_);
  conn->accept_from(port_, {packet.src, packet.src_port}, packet.tcp);
  if (on_accept_) on_accept_(std::move(conn));
}

}  // namespace rv::transport
