#include "obs/trace.h"

#include <algorithm>

#include "util/args.h"
#include "util/strings.h"

namespace rv::obs {

namespace detail {
constinit thread_local PlaySink* tl_sink = nullptr;
}  // namespace detail

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
    v[i] = kCounterInfo[i].kind == CounterKind::kMax
               ? std::max(v[i], other.v[i])
               : v[i] + other.v[i];
  }
}

void append_counters_json(std::string& out, const Counters& counters) {
  out += '{';
  for (std::size_t i = 0; i < counters.v.size(); ++i) {
    if (i != 0) out += ',';
    out += util::json_quote(kCounterInfo[i].name);
    out += ':';
    out += std::to_string(counters.v[i]);
  }
  out += '}';
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
