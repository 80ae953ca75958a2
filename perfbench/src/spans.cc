#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "util/check.h"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled, std::size_t lanes)
    : enabled_(enabled),
      origin_(std::chrono::steady_clock::now()),
      lanes_(lanes) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::uint64_t SpanRecorder::begin(std::uint32_t lane, const char* name,
                                  std::uint64_t parent, std::uint64_t group) {
  if (!enabled_) return 0;
  RV_CHECK_LT(lane, lanes_.size()) << "span lane out of range";
  auto& spans = lanes_[lane];
  Span s;
  s.id = (static_cast<std::uint64_t>(lane) + 1) << 32 | spans.size();
  s.parent = parent;
  s.group = group;
  s.lane = lane;
  s.name = name;
  s.start = now();
  s.end = s.start;
  spans.push_back(s);
  return s.id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const std::size_t lane = (id >> 32) - 1;
  const std::size_t index = id & 0xffffffffu;
  lanes_[lane][index].end = now();
}

std::vector<Span> SpanRecorder::spans() const {
  std::vector<Span> out;
  for (const auto& lane : lanes_) out.insert(out.end(), lane.begin(), lane.end());
  return out;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start, s.end);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of child intervals, clipped to the parent's.
    double covered = 0.0, run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, spans[i].start);
      hi = std::min(hi, spans[i].end);
      if (hi <= lo) continue;
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = spans[i].duration() - covered;
  }
  return out;
}

bool write_spans_json(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os << "{\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"group\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.lane, s.start * 1e6,
                  s.duration() * 1e6, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.group));
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
