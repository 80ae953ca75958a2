// Deterministic per-play tracing + counters.
//
// Each play records into a PlaySink: a fixed-capacity ring of POD trace
// events plus a small array of named counters. The sink is installed
// thread-locally for the duration of one simulated play (ScopedSink), so
// emit hooks scattered through the client/transport/fault layers need no
// plumbing — they consult one thread-local pointer. With no sink installed
// (tracing off, the default) a hook is a single predicted-untaken branch;
// bench_microbench gates the residual cost (<2% of the packet-forwarding
// and event-kernel hot paths, see scripts/run_bench.py --obs-overhead-check).
//
// Determinism: all event timestamps are simulated time and every hook fires
// from deterministic simulation code, so a play's event sequence depends
// only on its task inputs — never on wall clock or worker thread. Workers
// snapshot their sink into the play's preassigned TraceRecord slot; exports
// iterate records in slot (plan) order, making the merged output
// byte-identical at any thread count. See docs/OBSERVABILITY.md.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/units.h"

namespace rv::obs {

// Event category — one per instrumented subsystem.
enum class Cat : std::uint16_t {
  kClient = 0,
  kTransport = 1,
  kRtsp = 2,
  kFault = 3,
};

// Event code. The category is derived from the code (cat_of), so hooks pass
// just a code plus two u64 arguments; arg meanings are per-code and
// documented in docs/OBSERVABILITY.md.
enum class Code : std::uint16_t {
  // client / playout
  kPrerollDone = 0,    // a0 = preroll wait usec, a1 = buffered frames
  kRebufferStart = 1,  // a0 = rebuffer ordinal (1-based), a1 = frames played
  kRebufferStop = 2,   // a0 = stall duration usec, a1 = buffered frames
  kFrameDrop = 3,      // a0 = frame seq, a1 = lateness usec
  // transport
  kTcpState = 4,           // a0 = old state, a1 = new state
  kTcpFastRetransmit = 5,  // a0 = seq, a1 = dup acks
  kTcpTimeout = 6,         // a0 = seq, a1 = rto usec
  kSackRetransmit = 7,     // a0 = hole seq, a1 = highest sacked seq
  kUdpLossBurst = 8,       // a0 = gap length (pkts), a1 = first missing seq
  // rtsp
  kRtspRetry = 9,      // a0 = attempts used, a1 = backoff usec
  kRtspFallback = 10,  // a0 = ladder depth after fallback, a1 = reason code
  // faults
  kFaultOutage = 11,      // a0 = site index, a1 = 0
  kFaultOverload = 12,    // a0 = stall-until usec, a1 = 0
  kFaultBlackhole = 13,   // a0 = link index, a1 = duration usec
  kFaultCorruption = 14,  // a0 = link index, a1 = loss rate in ppm
  // transport (congestion control)
  kCcState = 15,  // a0 = old BBR state, a1 = new state (BbrCC::State)

  kCodeCount = 16,
};

// The event vocabulary: one row per Code, in enum order. Its name is what
// flight dumps and the Chrome trace print, and its category is what the
// trace ring stores beside the code.
struct CodeInfo {
  const char* name;
  Cat cat;
};
inline constexpr CodeInfo kCodeInfo[] = {
    {"preroll_done", Cat::kClient},            // kPrerollDone
    {"rebuffer", Cat::kClient},                // kRebufferStart
    {"rebuffer_end", Cat::kClient},            // kRebufferStop
    {"frame_drop", Cat::kClient},              // kFrameDrop
    {"tcp_state", Cat::kTransport},            // kTcpState
    {"tcp_fast_retransmit", Cat::kTransport},  // kTcpFastRetransmit
    {"tcp_timeout", Cat::kTransport},          // kTcpTimeout
    {"sack_retransmit", Cat::kTransport},      // kSackRetransmit
    {"udp_loss_burst", Cat::kTransport},       // kUdpLossBurst
    {"rtsp_retry", Cat::kRtsp},                // kRtspRetry
    {"rtsp_fallback", Cat::kRtsp},             // kRtspFallback
    {"fault_outage", Cat::kFault},             // kFaultOutage
    {"fault_overload", Cat::kFault},           // kFaultOverload
    {"fault_blackhole", Cat::kFault},          // kFaultBlackhole
    {"fault_corruption", Cat::kFault},         // kFaultCorruption
    {"cc_state", Cat::kTransport},             // kCcState
};
static_assert(std::size(kCodeInfo) ==
                  static_cast<std::size_t>(Code::kCodeCount),
              "kCodeInfo must cover every Code enum value");

// Category names, indexed by Cat.
inline constexpr const char* kCatNames[] = {"client", "transport", "rtsp",
                                            "fault"};

inline Cat cat_of(Code code) {
  return kCodeInfo[static_cast<std::size_t>(code)].cat;
}
inline const char* code_name(Code code) {
  return kCodeInfo[static_cast<std::size_t>(code)].name;
}
inline const char* cat_name(Cat cat) {
  return kCatNames[static_cast<std::size_t>(cat)];
}

// One trace record: 32 POD bytes.
struct TraceEvent {
  SimTime t = 0;            // simulated time, usec
  std::uint16_t cat = 0;    // Cat
  std::uint16_t code = 0;   // Code
  std::uint32_t pad = 0;    // keeps the layout explicit; always zero
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
};
static_assert(sizeof(TraceEvent) == 32);

// Monotonic per-play counters (kFallbackDepth is a high-water gauge).
enum class Counter : std::uint16_t {
  kPacketsEnqueued = 0,
  kPacketsDropped = 1,    // queue overflow + RED, any link
  kPacketsCorrupted = 2,  // eaten by an injected link fault
  kTcpRetransmits = 3,    // every retransmitted segment (RTO + fast + SACK)
  kSackRetransmits = 4,
  kRtspRetries = 5,
  kFallbackDepth = 6,  // gauge: 0 none, 1 TCP, 2 HTTP cloak
  kRebuffers = 7,
  kFrameDrops = 8,
  kUdpLossGaps = 9,
  kSimEvents = 10,  // simulator callbacks fired during the play
  kCcRecoveryEnters = 11,  // fast-recovery episodes entered by the sender

  kCount = 12,
};

// How study-level aggregation (Counters::merge) combines a counter.
enum class CounterKind : std::uint8_t {
  kSum,  // monotonic count: totals add
  kMax,  // high-water gauge: totals keep the largest
};

// The counter vocabulary: one row per Counter, in enum order. Flight dumps,
// the Chrome trace and realdata --trace print these names.
struct CounterInfo {
  const char* name;
  CounterKind kind;
};
inline constexpr CounterInfo kCounterInfo[] = {
    {"packets_enqueued", CounterKind::kSum},    // kPacketsEnqueued
    {"packets_dropped", CounterKind::kSum},     // kPacketsDropped
    {"packets_corrupted", CounterKind::kSum},   // kPacketsCorrupted
    {"tcp_retransmits", CounterKind::kSum},     // kTcpRetransmits
    {"sack_retransmits", CounterKind::kSum},    // kSackRetransmits
    {"rtsp_retries", CounterKind::kSum},        // kRtspRetries
    {"fallback_depth", CounterKind::kMax},      // kFallbackDepth
    {"rebuffers", CounterKind::kSum},           // kRebuffers
    {"frame_drops", CounterKind::kSum},         // kFrameDrops
    {"udp_loss_gaps", CounterKind::kSum},       // kUdpLossGaps
    {"sim_events", CounterKind::kSum},          // kSimEvents
    {"cc_recovery_enters", CounterKind::kSum},  // kCcRecoveryEnters
};
static_assert(std::size(kCounterInfo) ==
                  static_cast<std::size_t>(Counter::kCount),
              "kCounterInfo must cover every Counter enum value");

inline const char* counter_name(Counter c) {
  return kCounterInfo[static_cast<std::size_t>(c)].name;
}

struct Counters {
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)> v{};

  std::uint64_t get(Counter c) const {
    return v[static_cast<std::size_t>(c)];
  }
  void add(Counter c, std::uint64_t n = 1) {
    v[static_cast<std::size_t>(c)] += n;
  }
  void set_max(Counter c, std::uint64_t value) {
    auto& cur = v[static_cast<std::size_t>(c)];
    if (value > cur) cur = value;
  }
  // Study-level aggregation, by each counter's CounterKind.
  void merge(const Counters& other);
  void clear() { v.fill(0); }
};

// Appends the counters as one JSON object, {"name":value,...} in table
// order: the "counters" section of a flight dump and the args of a Chrome
// trace's play_counters event.
void append_counters_json(std::string& out, const Counters& counters);

// Fixed-capacity ring of trace events. When full, the oldest events are
// overwritten and dropped() grows — recent history wins, memory stays
// bounded (capacity * 32 bytes per play).
class TraceBuffer {
 public:
  static constexpr std::uint32_t kDefaultCapacity = 4096;

  explicit TraceBuffer(std::uint32_t capacity = kDefaultCapacity) {
    reset(capacity);
  }

  void reset(std::uint32_t capacity);
  void clear();

  void emit(SimTime t, Code code, std::uint64_t a0, std::uint64_t a1);

  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(ring_.size());
  }
  std::uint64_t total_emitted() const { return emitted_; }
  std::uint64_t dropped() const {
    return emitted_ > ring_.size() ? emitted_ - ring_.size() : 0;
  }
  // Surviving events, oldest first.
  std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> ring_;
  std::uint64_t emitted_ = 0;
};

// The per-play observability state a worker records into.
struct PlaySink {
  TraceBuffer buffer;
  Counters counters;

  void reset(std::uint32_t capacity) {
    buffer.reset(capacity);
    counters.clear();
  }
};

namespace detail {
// constinit: no dynamic initialisation, so a read is a plain TLS load
// rather than a call through GCC's TLS wrapper function. (Through that
// wrapper, GCC 12's UBSan reported every read as a null-pointer load.)
extern constinit thread_local PlaySink* tl_sink;
}  // namespace detail

inline PlaySink* current_sink() { return detail::tl_sink; }

// Installs a sink for the current thread; restores the previous one on
// destruction. One instance wraps each observed play.
class ScopedSink {
 public:
  explicit ScopedSink(PlaySink* sink) : prev_(detail::tl_sink) {
    detail::tl_sink = sink;
  }
  ~ScopedSink() { detail::tl_sink = prev_; }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  PlaySink* prev_;
};

// Hot-path hooks. With no sink installed these are a thread-local load and
// a predicted-untaken branch.
inline void emit(SimTime t, Code code, std::uint64_t a0 = 0,
                 std::uint64_t a1 = 0) {
  PlaySink* sink = detail::tl_sink;
  if (__builtin_expect(sink != nullptr, 0)) {
    sink->buffer.emit(t, code, a0, a1);
  }
}

inline void count(Counter c, std::uint64_t n = 1) {
  PlaySink* sink = detail::tl_sink;
  if (__builtin_expect(sink != nullptr, 0)) sink->counters.add(c, n);
}

inline void gauge_max(Counter c, std::uint64_t value) {
  PlaySink* sink = detail::tl_sink;
  if (__builtin_expect(sink != nullptr, 0)) sink->counters.set_max(c, value);
}

// Snapshot of one observed play, carried in tracer::TraceRecord. In-memory
// only: never serialized into the study cache (the cache byte format and
// fingerprint are identical with tracing on or off).
struct PlayObs {
  bool enabled = false;
  std::vector<TraceEvent> events;  // slot-ordered merge key, oldest first
  std::uint64_t events_dropped = 0;
  Counters counters;
};

// Tracing configuration carried by TracerConfig. Deliberately excluded from
// the study-cache config fingerprint: observability must not change which
// cache file a study maps to, nor its bytes.
struct ObsConfig {
  bool enabled = false;
  std::uint32_t ring_capacity = TraceBuffer::kDefaultCapacity;
  // When >= 0, only the matching user id / per-user play index records.
  std::int32_t filter_user = -1;
  std::int32_t filter_play = -1;

  bool selects(std::uint32_t user_id, std::uint32_t play_index) const {
    if (!enabled) return false;
    if (filter_user >= 0 &&
        user_id != static_cast<std::uint32_t>(filter_user)) {
      return false;
    }
    if (filter_play >= 0 &&
        play_index != static_cast<std::uint32_t>(filter_play)) {
      return false;
    }
    return true;
  }
};

// Strict "--trace-play user,play" parser: exactly two comma-separated
// non-negative integers with no extra fields or trailing junk. Returns
// {user, play} or nullopt on any malformation (tools exit 2 with a
// diagnostic rather than silently ignoring the garbage).
std::optional<std::pair<std::int32_t, std::int32_t>> parse_trace_play(
    std::string_view text);

}  // namespace rv::obs
