#include "obs/trace.h"

#include <iterator>

#include "util/args.h"
#include "util/strings.h"

namespace rv::obs {

namespace detail {
constinit thread_local PlaySink* tl_sink = nullptr;
}  // namespace detail

namespace {

// One name per enum value, in declaration order. The static_asserts turn
// "added an enum value but no name" into a compile error instead of a
// silent "unknown" at runtime; obs_test additionally checks the names are
// unique and non-empty.
constexpr const char* kCodeNames[] = {
    "preroll_done",        // kPrerollDone
    "rebuffer",            // kRebufferStart
    "rebuffer_end",        // kRebufferStop
    "frame_drop",          // kFrameDrop
    "tcp_state",           // kTcpState
    "tcp_fast_retransmit", // kTcpFastRetransmit
    "tcp_timeout",         // kTcpTimeout
    "sack_retransmit",     // kSackRetransmit
    "udp_loss_burst",      // kUdpLossBurst
    "rtsp_retry",          // kRtspRetry
    "rtsp_fallback",       // kRtspFallback
    "fault_outage",        // kFaultOutage
    "fault_overload",      // kFaultOverload
    "fault_blackhole",     // kFaultBlackhole
    "fault_corruption",    // kFaultCorruption
    "cc_state",            // kCcState
};
static_assert(std::size(kCodeNames) ==
                  static_cast<std::size_t>(Code::kCodeCount),
              "kCodeNames must cover every Code enum value");

constexpr const char* kCounterNames[] = {
    "packets_enqueued",   // kPacketsEnqueued
    "packets_dropped",    // kPacketsDropped
    "packets_corrupted",  // kPacketsCorrupted
    "tcp_retransmits",    // kTcpRetransmits
    "sack_retransmits",   // kSackRetransmits
    "rtsp_retries",       // kRtspRetries
    "fallback_depth",     // kFallbackDepth
    "rebuffers",          // kRebuffers
    "frame_drops",        // kFrameDrops
    "udp_loss_gaps",      // kUdpLossGaps
    "sim_events",         // kSimEvents
    "cc_recovery_enters", // kCcRecoveryEnters
};
static_assert(std::size(kCounterNames) ==
                  static_cast<std::size_t>(Counter::kCount),
              "kCounterNames must cover every Counter enum value");

}  // namespace

Cat cat_of(Code code) {
  switch (code) {
    case Code::kPrerollDone:
    case Code::kRebufferStart:
    case Code::kRebufferStop:
    case Code::kFrameDrop:
      return Cat::kClient;
    case Code::kTcpState:
    case Code::kTcpFastRetransmit:
    case Code::kTcpTimeout:
    case Code::kSackRetransmit:
    case Code::kUdpLossBurst:
    case Code::kCcState:
      return Cat::kTransport;
    case Code::kRtspRetry:
    case Code::kRtspFallback:
      return Cat::kRtsp;
    case Code::kFaultOutage:
    case Code::kFaultOverload:
    case Code::kFaultBlackhole:
    case Code::kFaultCorruption:
      return Cat::kFault;
    case Code::kCodeCount:
      break;
  }
  return Cat::kClient;
}

const char* cat_name(Cat cat) {
  switch (cat) {
    case Cat::kClient:
      return "client";
    case Cat::kTransport:
      return "transport";
    case Cat::kRtsp:
      return "rtsp";
    case Cat::kFault:
      return "fault";
  }
  return "unknown";
}

const char* code_name(Code code) {
  const auto i = static_cast<std::size_t>(code);
  return i < std::size(kCodeNames) ? kCodeNames[i] : "unknown";
}

const char* counter_name(Counter c) {
  const auto i = static_cast<std::size_t>(c);
  return i < std::size(kCounterNames) ? kCounterNames[i] : "unknown";
}

std::optional<std::pair<std::int32_t, std::int32_t>> parse_trace_play(
    std::string_view text) {
  const auto parts = util::split(text, ',');
  if (parts.size() != 2) return std::nullopt;
  const auto user = util::parse_int(parts[0]);
  const auto play = util::parse_int(parts[1]);
  if (!user || !play || *user < 0 || *play < 0) return std::nullopt;
  if (*user > INT32_MAX || *play > INT32_MAX) return std::nullopt;
  return std::make_pair(static_cast<std::int32_t>(*user),
                        static_cast<std::int32_t>(*play));
}

void Counters::merge(const Counters& other) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i == static_cast<std::size_t>(Counter::kFallbackDepth)) {
      if (other.v[i] > v[i]) v[i] = other.v[i];
    } else {
      v[i] += other.v[i];
    }
  }
}

void TraceBuffer::reset(std::uint32_t capacity) {
  if (capacity == 0) capacity = 1;
  ring_.assign(capacity, TraceEvent{});
  emitted_ = 0;
}

void TraceBuffer::clear() {
  // Stale slots beyond emitted_ are never read back; no need to rezero.
  emitted_ = 0;
}

void TraceBuffer::emit(SimTime t, Code code, std::uint64_t a0,
                       std::uint64_t a1) {
  TraceEvent& slot = ring_[emitted_ % ring_.size()];
  slot.t = t;
  slot.cat = static_cast<std::uint16_t>(cat_of(code));
  slot.code = static_cast<std::uint16_t>(code);
  slot.pad = 0;
  slot.a0 = a0;
  slot.a1 = a1;
  ++emitted_;
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<TraceEvent> out;
  const std::uint64_t n = emitted_ < ring_.size() ? emitted_ : ring_.size();
  out.reserve(n);
  // Oldest surviving event first; when wrapped that is the slot after the
  // most recent write.
  const std::uint64_t start = emitted_ - n;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

}  // namespace rv::obs
