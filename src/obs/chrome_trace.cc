#include "obs/chrome_trace.h"

#include <fstream>

#include "util/strings.h"

namespace rv::obs {
namespace {

void append_metadata(std::string& out, const char* name, std::uint32_t pid,
                     std::uint32_t tid, bool with_tid,
                     std::string_view value) {
  out += "{\"name\":\"";
  out += name;
  out += "\",\"ph\":\"M\",\"pid\":";
  out += std::to_string(pid);
  if (with_tid) {
    out += ",\"tid\":";
    out += std::to_string(tid);
  }
  out += ",\"args\":{\"name\":\"";
  util::json_escape(out, value);
  out += "\"}}";
}

void append_event(std::string& out, const PlayTrack& track,
                  const TraceEvent& ev) {
  const auto code = static_cast<Code>(ev.code);
  const char* ph = "i";
  if (code == Code::kRebufferStart) ph = "B";
  if (code == Code::kRebufferStop) ph = "E";
  out += "{\"name\":\"";
  // Pair the B/E span under one name so the viewer draws a single bar.
  out += (code == Code::kRebufferStop) ? code_name(Code::kRebufferStart)
                                       : code_name(code);
  out += "\",\"cat\":\"";
  out += cat_name(static_cast<Cat>(ev.cat));
  out += "\",\"ph\":\"";
  out += ph;
  out += "\",\"ts\":";
  out += std::to_string(ev.t);  // SimTime is already microseconds
  out += ",\"pid\":";
  out += std::to_string(track.pid);
  out += ",\"tid\":";
  out += std::to_string(track.tid);
  if (ph[0] == 'i') out += ",\"s\":\"t\"";
  out += ",\"args\":{\"a0\":";
  out += std::to_string(ev.a0);
  out += ",\"a1\":";
  out += std::to_string(ev.a1);
  out += "}}";
}

void append_counter_series(std::string& out, const PlayTrack& track,
                           const CounterSeries& series, bool& first) {
  // One "C" event per sample; the viewer connects them into an area track.
  for (std::size_t i = 0; i < series.t.size() && i < series.v.size(); ++i) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    util::json_escape(out, series.name);
    out += "\",\"cat\":\"telemetry\",\"ph\":\"C\",\"ts\":";
    out += std::to_string(series.t[i]);
    out += ",\"pid\":";
    out += std::to_string(track.pid);
    out += ",\"tid\":";
    out += std::to_string(track.tid);
    out += ",\"args\":{\"v\":";
    out += util::format_double(series.v[i], 3);
    out += "}}";
  }
}

void append_counters(std::string& out, const PlayTrack& track,
                     const Counters& counters) {
  // One summary instant at ts 0 carrying the play's final counter values.
  out += "{\"name\":\"play_counters\",\"cat\":\"obs\",\"ph\":\"i\",\"ts\":0,"
         "\"pid\":";
  out += std::to_string(track.pid);
  out += ",\"tid\":";
  out += std::to_string(track.tid);
  out += ",\"s\":\"t\",\"args\":";
  append_counters_json(out, counters);
  out += '}';
}

}  // namespace

std::string chrome_trace_json(const std::vector<PlayTrack>& tracks) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&out, &first]() {
    if (!first) out += ",\n";
    first = false;
  };
  std::uint32_t last_pid = 0;
  bool any_pid = false;
  for (const PlayTrack& track : tracks) {
    if (track.obs == nullptr || !track.obs->enabled) continue;
    if (!any_pid || track.pid != last_pid) {
      sep();
      append_metadata(out, "process_name", track.pid, 0, false,
                      track.process_name);
      last_pid = track.pid;
      any_pid = true;
    }
    sep();
    append_metadata(out, "thread_name", track.pid, track.tid, true,
                    track.thread_name);
    for (const TraceEvent& ev : track.obs->events) {
      sep();
      append_event(out, track, ev);
    }
    for (const CounterSeries& series : track.counters) {
      append_counter_series(out, track, series, first);
    }
    sep();
    append_counters(out, track, track.obs->counters);
    if (track.obs->events_dropped > 0) {
      sep();
      out += "{\"name\":\"events_dropped\",\"cat\":\"obs\",\"ph\":\"i\","
             "\"ts\":0,\"pid\":";
      out += std::to_string(track.pid);
      out += ",\"tid\":";
      out += std::to_string(track.tid);
      out += ",\"s\":\"t\",\"args\":{\"dropped\":";
      out += std::to_string(track.obs->events_dropped);
      out += "}}";
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<PlayTrack>& tracks) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string json = chrome_trace_json(tracks);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(out);
}

}  // namespace rv::obs
