// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around its calls into the simulator's public
// functions — nothing inside the program is instrumented.
//
// Each recording thread owns one lane, so recording takes no lock. A span
// carries a name, start and end (seconds since the recorder was made), the
// id of the span that caused it (possibly on another lane: a worker's
// run_play span has the execute-phase span on the main lane as parent) and
// a group id shared by all spans of one play.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;      // (lane + 1) << 32 | ordinal within the lane
  std::uint64_t parent = 0;  // 0 = top-level
  std::uint64_t group = 0;   // play id (task slot + 1); 0 = not play-bound
  std::uint32_t lane = 0;
  const char* name = "";     // string literal
  double start = 0.0;
  double end = 0.0;
  double duration() const { return end - start; }
};

class SpanRecorder {
 public:
  // `enabled` false makes every call a no-op returning 0.
  SpanRecorder(bool enabled, std::size_t lanes);

  bool enabled() const { return enabled_; }
  double now() const;

  // Opens a span on `lane`. Each lane must be used by one thread at a time.
  std::uint64_t begin(std::uint32_t lane, const char* name,
                      std::uint64_t parent = 0, std::uint64_t group = 0);
  void end(std::uint64_t id);

  // All spans of all lanes, lane-major. Call only when no thread records.
  std::vector<Span> spans() const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<std::vector<Span>> lanes_;
};

// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::uint32_t lane, const char* name,
             std::uint64_t parent = 0, std::uint64_t group = 0)
      : rec_(rec), id_(rec.begin(lane, name, parent, group)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

// Self time of each span: its duration minus the part of its interval that
// its children (on any lane) cover. Indexed like `spans`.
std::vector<double> self_times(const std::vector<Span>& spans);

// Writes the spans as Chrome trace_event JSON ("X" events, tid = lane,
// args carry id/parent/group). Returns false on I/O failure.
bool write_spans_json(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
