#include "telemetry/flight.h"

#include <cstdio>

#include "util/strings.h"

namespace rv::telemetry {
namespace {

void append_double_array(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += util::format_double(v[i], 6);
  }
  out += ']';
}

template <typename T>
void append_int_array(std::string& out, const std::vector<T>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(v[i]);
  }
  out += ']';
}

void append_events(std::string& out, const obs::PlayObs& obs) {
  out += "\"events_dropped\":";
  out += std::to_string(obs.events_dropped);
  out += ",\"events\":[";
  for (std::size_t i = 0; i < obs.events.size(); ++i) {
    const obs::TraceEvent& ev = obs.events[i];
    if (i != 0) out += ',';
    const auto code = static_cast<obs::Code>(ev.code);
    out += "{\"t\":";
    out += std::to_string(ev.t);
    out += ",\"cat\":";
    out += util::json_quote(obs::cat_name(obs::cat_of(code)));
    out += ",\"code\":";
    out += util::json_quote(obs::code_name(code));
    out += ",\"a0\":";
    out += std::to_string(ev.a0);
    out += ",\"a1\":";
    out += std::to_string(ev.a1);
    out += '}';
  }
  out += "],\"counters\":";
  obs::append_counters_json(out, obs.counters);
}

void append_series(std::string& out, const PlaySeries& series) {
  const Series& s = series.data;
  out += "\"series\":{\"interval_usec\":";
  out += std::to_string(series.interval);
  out += ",\"t\":";
  append_int_array(out, s.t);
  for (const SeriesColumn& col : kSeriesColumns) {
    out += ",\"";
    out += col.name;
    out += "\":";
    append_double_array(out, s.*col.member);
  }
  out += ",\"links\":[";
  for (std::size_t l = 0; l < s.links.size(); ++l) {
    if (l != 0) out += ',';
    out += "{\"";
    out += kLinkOccupancy;
    out += "\":";
    append_double_array(out, s.links[l].occupancy);
    out += ",\"";
    out += kLinkDrops;
    out += "\":";
    append_int_array(out, s.links[l].drops);
    out += '}';
  }
  out += "]}";
}

}  // namespace

std::string flight_json(const FlightInfo& info) {
  std::string out;
  out.reserve(4096);
  out += "{\"meta\":{";
  for (std::size_t i = 0; i < info.meta.size(); ++i) {
    if (i != 0) out += ',';
    out += util::json_quote(info.meta[i].first);
    out += ':';
    out += info.meta[i].second;  // pre-rendered JSON value
  }
  out += "},\"reasons\":[";
  for (std::size_t i = 0; i < info.reasons.size(); ++i) {
    if (i != 0) out += ',';
    out += util::json_quote(info.reasons[i]);
  }
  out += ']';
  if (info.obs != nullptr && info.obs->enabled) {
    out += ',';
    append_events(out, *info.obs);
  }
  if (info.series != nullptr && info.series->enabled) {
    out += ',';
    append_series(out, *info.series);
  }
  out += "}\n";
  return out;
}

bool write_flight_json(const std::string& path, const FlightInfo& info) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string doc = flight_json(info);
  const bool write_ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool close_ok = std::fclose(f) == 0;
  return write_ok && close_ok;
}

}  // namespace rv::telemetry
