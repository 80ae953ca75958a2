#include "study/telemetry_report.h"

#include <algorithm>
#include <filesystem>
#include <map>

#include "stats/csv.h"
#include "stats/histogram.h"
#include "telemetry/flight.h"
#include "util/strings.h"
#include "world/path_builder.h"
#include "world/types.h"

namespace rv::study {

std::string pad_left(const std::string& s, std::size_t width) {
  return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  return s.size() >= width ? s : s + std::string(width - s.size(), ' ');
}

std::string quantile_triplet(const stats::MergeableHistogram& h,
                             int decimals) {
  if (h.total() == 0) return "-";
  return util::str_cat(util::format_double(h.quantile(0.50), decimals), "/",
                       util::format_double(h.quantile(0.95), decimals), "/",
                       util::format_double(h.quantile(0.99), decimals));
}

namespace {

void append_group_section(std::string& out, const std::string& title,
                          const std::map<std::string, GroupSketch>& groups) {
  out += "  by ";
  out += title;
  out += ":\n";
  for (const auto& [label, sketch] : groups) {
    out += "    ";
    out += pad_right(label, 18);
    out += pad_left(quantile_triplet(sketch.fps, 1), 16);
    out += "  ";
    out += pad_left(quantile_triplet(sketch.bw, 0), 16);
    out += '\n';
  }
}

const char* protocol_name(const tracer::TraceRecord& rec) {
  return rec.stats.protocol == net::Protocol::kUdp ? "udp" : "tcp";
}

}  // namespace

std::vector<std::string> flight_reasons(const tracer::TraceRecord& rec,
                                        const FlightPredicates& pred) {
  std::vector<std::string> reasons;
  if (!rec.analyzable()) return reasons;
  if (rec.stats.rebuffer_seconds > pred.rebuffer_seconds) {
    reasons.push_back("rebuffer");
  }
  if (pred.http_cloak && rec.stats.fell_back_to_http) {
    reasons.push_back("http-cloak");
  }
  if (rec.stats.measured_fps < pred.min_fps) reasons.push_back("low-fps");
  return reasons;
}

int write_flight_records(const std::string& dir, const StudyResult& result,
                         const FlightPredicates& pred) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return -1;
  int written = 0;
  for (std::size_t slot = 0; slot < result.records.size(); ++slot) {
    const tracer::TraceRecord& rec = result.records[slot];
    telemetry::FlightInfo info;
    info.reasons = flight_reasons(rec, pred);
    if (info.reasons.empty()) continue;
    info.meta.emplace_back("user_id", std::to_string(rec.user_id));
    info.meta.emplace_back("record_slot", std::to_string(slot));
    info.meta.emplace_back("clip_id", std::to_string(rec.clip_id));
    info.meta.emplace_back("server", util::json_quote(rec.server_name.str()));
    info.meta.emplace_back(
        "connection",
        util::json_quote(world::connection_class_name(rec.connection)));
    info.meta.emplace_back("user_region",
                           util::json_quote(world::user_region_group_name(
                               rec.user_group)));
    info.meta.emplace_back("protocol", util::json_quote(protocol_name(rec)));
    info.meta.emplace_back("measured_fps",
                           util::format_double(rec.stats.measured_fps, 3));
    info.meta.emplace_back(
        "rebuffer_seconds",
        util::format_double(rec.stats.rebuffer_seconds, 3));
    info.obs = &rec.obs;
    info.series = &rec.series;
    const std::string path =
        util::str_cat(dir, "/flight_u", rec.user_id, "_s", slot, ".json");
    if (!telemetry::write_flight_json(path, info)) return -1;
    ++written;
  }
  return written;
}

void TelemetryRollup::fold(const tracer::TraceRecord& rec) {
  if (!rec.series.enabled || rec.series.data.empty()) return;
  const telemetry::Series& s = rec.series.data;
  // Per-play sketches merged upward — the mergeable path the sharded
  // campaign uses, and the one stats_test pins associativity for.
  GroupSketch play;
  for (const double v : s.fps) play.fps.add(v);
  for (const double v : s.bandwidth_kbps) play.bw.add(v);
  const std::string cls(world::connection_class_name(rec.connection));
  by_class.try_emplace(cls).first->second.merge(play);
  by_region
      .try_emplace(std::string(world::user_region_group_name(rec.user_group)))
      .first->second.merge(play);
  by_server.try_emplace(rec.server_name).first->second.merge(play);
  ++plays;
  samples += s.size();

  const int link = telemetry::bottleneck_link(s);
  if (link >= 0) {
    auto& row = bottleneck[cls];
    if (row.empty()) row.assign(world::PlayPath::kLinkCount, 0);
    if (static_cast<std::size_t>(link) < row.size()) ++row[link];
  }
}

void TelemetryRollup::merge(const TelemetryRollup& other) {
  plays += other.plays;
  samples += other.samples;
  const auto merge_groups = [](std::map<std::string, GroupSketch>& into,
                               const std::map<std::string, GroupSketch>& from) {
    for (const auto& [label, sketch] : from) {
      into.try_emplace(label).first->second.merge(sketch);
    }
  };
  merge_groups(by_class, other.by_class);
  merge_groups(by_region, other.by_region);
  merge_groups(by_server, other.by_server);
  for (const auto& [label, row] : other.bottleneck) {
    auto& into = bottleneck[label];
    if (into.empty()) into.assign(row.size(), 0);
    for (std::size_t l = 0; l < row.size() && l < into.size(); ++l) {
      into[l] += row[l];
    }
  }
}

std::string TelemetryRollup::render() const {
  if (plays == 0) return {};
  std::string out = util::str_cat("Telemetry rollup: ", plays,
                                  " plays sampled, ", samples, " samples\n");
  out += util::str_cat("    ", pad_right("group", 18),
                       pad_left("fps p50/p95/p99", 16), "  ",
                       pad_left("kbps p50/p95/p99", 16), "\n");
  append_group_section(out, "connection class", by_class);
  append_group_section(out, "user region", by_region);
  append_group_section(out, "server", by_server);

  if (!bottleneck.empty()) {
    out += "  bottleneck attribution (plays per constraining link):\n";
    out += util::str_cat("    ", pad_right("", 18));
    for (std::size_t l = 0; l < world::PlayPath::kLinkCount; ++l) {
      out += pad_left(world::path_link_name(l), 14);
    }
    out += '\n';
    for (const auto& [label, row] : bottleneck) {
      out += util::str_cat("    ", pad_right(label, 18));
      for (const int n : row) out += pad_left(std::to_string(n), 14);
      out += '\n';
    }
  }
  return out;
}

std::map<std::string, std::vector<int>> bottleneck_table(
    const StudyResult& result) {
  TelemetryRollup rollup;
  for (const auto& rec : result.records) rollup.fold(rec);
  return rollup.bottleneck;
}

std::string telemetry_report(const StudyResult& result) {
  TelemetryRollup rollup;
  for (const auto& rec : result.records) rollup.fold(rec);
  return rollup.render();
}

void write_series_csv(const std::string& path,
                      const std::vector<tracer::TraceRecord>& records) {
  stats::CsvWriter csv(path);
  std::vector<std::string> row = {"user_id", "record_slot", "clip_id",
                                  "server", "t_usec"};
  for (const telemetry::SeriesColumn& col : telemetry::kSeriesColumns) {
    row.push_back(col.name);
  }
  for (std::size_t l = 0; l < world::PlayPath::kLinkCount; ++l) {
    row.push_back(world::path_link_name(l) + "_" + telemetry::kLinkOccupancy);
    row.push_back(world::path_link_name(l) + "_" + telemetry::kLinkDrops);
  }
  csv.write_row(row);
  for (std::size_t slot = 0; slot < records.size(); ++slot) {
    const tracer::TraceRecord& rec = records[slot];
    if (!rec.series.enabled) continue;
    const telemetry::Series& s = rec.series.data;
    for (std::size_t i = 0; i < s.size(); ++i) {
      row.clear();
      row.push_back(std::to_string(rec.user_id));
      row.push_back(std::to_string(slot));
      row.push_back(std::to_string(rec.clip_id));
      row.push_back(rec.server_name);
      row.push_back(std::to_string(s.t[i]));
      for (const telemetry::SeriesColumn& col : telemetry::kSeriesColumns) {
        row.push_back(util::format_double((s.*col.member)[i], 6));
      }
      for (std::size_t l = 0; l < world::PlayPath::kLinkCount; ++l) {
        if (l < s.links.size() && i < s.links[l].occupancy.size()) {
          row.push_back(util::format_double(s.links[l].occupancy[i], 6));
          row.push_back(std::to_string(s.links[l].drops[i]));
        } else {
          row.push_back("0");
          row.push_back("0");
        }
      }
      csv.write_row(row);
    }
  }
}

std::vector<obs::CounterSeries> chrome_counter_series(
    const telemetry::PlaySeries& series) {
  std::vector<obs::CounterSeries> out;
  if (!series.enabled || series.data.empty()) return out;
  const telemetry::Series& s = series.data;
  const auto add = [&](std::string name, const std::vector<double>& v) {
    obs::CounterSeries cs;
    cs.name = std::move(name);
    cs.t = s.t;
    cs.v = v;
    out.push_back(std::move(cs));
  };
  for (const telemetry::SeriesColumn& col : telemetry::kSeriesColumns) {
    add(col.name, s.*col.member);
  }
  for (std::size_t l = 0; l < s.links.size(); ++l) {
    const std::string link = world::path_link_name(l) + "_";
    add(link + telemetry::kLinkOccupancy, s.links[l].occupancy);
    obs::CounterSeries drops;
    drops.name = link + telemetry::kLinkDrops;
    drops.t = s.t;
    drops.v.assign(s.links[l].drops.begin(), s.links[l].drops.end());
    out.push_back(std::move(drops));
  }
  return out;
}

std::string profile_report(const StudyProfile& profile) {
  if (!profile.enabled) return "Study profile: disabled\n";
  std::string out = util::str_cat(
      "Study profile: plan ", util::format_double(profile.plan_seconds, 3),
      " s, execute ", util::format_double(profile.execute_seconds, 3), " s, ",
      profile.workers.size(), " worker(s)\n");
  out += util::str_cat("  ", pad_left("worker", 8), pad_left("plays", 8),
                       pad_left("busy_s", 10), pad_left("idle_s", 10),
                       pad_left("max_play_ms", 13), "\n");
  std::uint64_t total_plays = 0;
  double total_busy = 0.0, total_idle = 0.0;
  for (std::size_t w = 0; w < profile.workers.size(); ++w) {
    const WorkerProfile& wp = profile.workers[w];
    out += util::str_cat(
        "  ", pad_left(std::to_string(w), 8),
        pad_left(std::to_string(wp.plays), 8),
        pad_left(util::format_double(wp.busy_seconds, 3), 10),
        pad_left(util::format_double(wp.idle_seconds, 3), 10),
        pad_left(util::format_double(wp.max_play_seconds * 1e3, 1), 13),
        "\n");
    total_plays += wp.plays;
    total_busy += wp.busy_seconds;
    total_idle += wp.idle_seconds;
  }
  out += util::str_cat("  ", pad_left("total", 8),
                       pad_left(std::to_string(total_plays), 8),
                       pad_left(util::format_double(total_busy, 3), 10),
                       pad_left(util::format_double(total_idle, 3), 10),
                       "\n");
  return out;
}

}  // namespace rv::study
