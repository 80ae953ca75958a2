// retracer — play one clip through the simulator and print the RealTracer
// record, like running the paper's instrumented player once.
//
// Usage:
//   retracer [--connection modem|dsl|t1] [--pc <fig19-class>]
//            [--region us-east|us-west|europe|asia|japan|australia|
//                      s-america|middle-east]
//            [--clip <playlist-index 0..97>] [--protocol auto|tcp]
//            [--cc reno|cubic|bbr]
//            [--live] [--watch <seconds>] [--seed <n>] [--samples]
//            [--trace <path>] [--telemetry] [--telemetry-interval-ms <n>]
//            [--series-csv <path>]
//   retracer --spill-read <path> [--spill-record <k>]
//
// --spill-read seeks record k out of a campaign spill file (see
// docs/DESIGN.md on the columnar format) and prints it — the random-access
// path over spilled records.
//
// --trace writes the play's event trace as Chrome trace_event JSON (load in
// chrome://tracing or ui.perfetto.dev; see docs/OBSERVABILITY.md).
// --telemetry samples the play's time series (default every 500 ms of
// sim-time); with --trace the series also becomes "C"-phase counter tracks,
// and --series-csv exports it as CSV. Malformed numeric flag values exit 2
// instead of silently using the default.
//
// Examples:
//   retracer --connection modem --clip 8
//   retracer --connection dsl --region australia --protocol tcp --samples
// --status-port <0..65535> serves GET /metrics, /progress and /healthz on
// 127.0.0.1 while the play runs (0 = ephemeral, announced on stderr);
// --status-hold-ms keeps serving after the play finishes so a scraper can
// observe the final counters.
#include <chrono>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "shared_flags.h"
#include "study/spill.h"
#include "study/study.h"
#include "study/telemetry_report.h"
#include "tracer/real_tracer.h"
#include "util/args.h"
#include "util/strings.h"
#include "world/region_graph.h"

namespace {

using namespace rv;

std::optional<world::ConnectionClass> parse_connection(const std::string& s) {
  if (s == "modem") return world::ConnectionClass::kModem56k;
  if (s == "dsl") return world::ConnectionClass::kDslCable;
  if (s == "t1" || s == "lan") return world::ConnectionClass::kT1Lan;
  return std::nullopt;
}

std::optional<world::Region> parse_region(const std::string& s) {
  const std::pair<const char*, world::Region> table[] = {
      {"us-east", world::Region::kUsEast},
      {"us-west", world::Region::kUsWest},
      {"europe", world::Region::kEurope},
      {"asia", world::Region::kAsia},
      {"japan", world::Region::kJapan},
      {"australia", world::Region::kAustralia},
      {"s-america", world::Region::kSouthAmerica},
      {"middle-east", world::Region::kMiddleEast},
  };
  for (const auto& [name, region] : table) {
    if (s == name) return region;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv, {"help", "live", "samples", "telemetry"});
  if (args.has("help")) {
    std::cout << "usage: retracer [--connection modem|dsl|t1] [--pc <class>]"
                 " [--region <name>] [--clip <0..97>] [--protocol auto|tcp]"
                 " [--cc reno|cubic|bbr]"
                 " [--live] [--watch <sec>] [--seed <n>] [--samples]"
                 " [--trace <path>] [--telemetry]"
                 " [--telemetry-interval-ms <n>] [--series-csv <path>]"
                 " [--status-port <p> [--status-hold-ms <n>]]\n"
                 "       retracer --spill-read <path> [--spill-record <k>]\n";
    return 0;
  }
  const auto unknown = args.unknown_flags(
      {"connection", "pc", "region", "clip", "protocol", "cc", "watch", "seed",
       "trace", "telemetry-interval-ms", "series-csv", "status-port",
       "status-hold-ms", "spill-read", "spill-record"});
  for (const auto& flag : unknown) {
    std::cerr << "unknown flag " << flag << "\n";
  }
  if (!unknown.empty()) return 2;

  if (args.has("spill-read")) {
    const std::string spill_path = args.get_or("spill-read", "");
    if (spill_path.empty()) {
      std::cerr << "--spill-read requires a file path\n";
      return 2;
    }
    const auto record_index = args.get_int("spill-record", 0);
    if (record_index < 0) {
      std::cerr << "--spill-record must be a non-negative integer (got "
                << record_index << ")\n";
      return 2;
    }
    if (!args.errors().empty()) {
      for (const auto& err : args.errors()) std::cerr << err << "\n";
      return 2;
    }
    study::SpillReader reader;
    if (!reader.open(spill_path)) {
      std::cerr << reader.error() << "\n";
      return 1;
    }
    if (static_cast<std::uint64_t>(record_index) >= reader.records()) {
      std::cerr << "--spill-record " << record_index << " out of range ("
                << reader.records() << " records in " << spill_path << ")\n";
      return 2;
    }
    tracer::TraceRecord rec;
    if (!reader.read_record(static_cast<std::uint64_t>(record_index), rec)) {
      std::cerr << "corrupt spill frame in " << spill_path << "\n";
      return 1;
    }
    using util::format_double;
    std::cout << "spill:       " << spill_path << " (" << reader.records()
              << " records, " << reader.frames() << " frames)\n";
    std::cout << "record:      #" << record_index << " user " << rec.user_id
              << " clip " << rec.clip_id << " via " << rec.server_name << " ("
              << rec.server_country << ")\n";
    std::cout << "user:        " << rec.country
              << (rec.us_state.empty() ? "" : "/") << rec.us_state << ", "
              << world::connection_class_name(rec.connection) << ", "
              << rec.pc_class << "\n";
    if (!rec.available) {
      std::cout << "result:      clip unavailable\n";
      return 0;
    }
    std::cout << "transport:   " << net::protocol_name(rec.stats.protocol)
              << (rec.stats.fell_back_to_tcp ? " (fell back from UDP)" : "")
              << "\n";
    std::cout << "measured:    "
              << format_double(to_kbps(rec.stats.measured_bandwidth), 0)
              << " Kbps @ " << format_double(rec.stats.measured_fps, 1)
              << " fps, jitter " << format_double(rec.stats.jitter_ms, 1)
              << " ms\n";
    std::cout << "frames:      " << rec.stats.frames_played << " played, "
              << rec.stats.frames_dropped << " dropped; rebuffers "
              << rec.stats.rebuffer_events << " ("
              << format_double(rec.stats.rebuffer_seconds, 1) << " s); "
              << rec.stats.samples.size() << " samples\n";
    if (rec.rated()) {
      std::cout << "rating:      " << format_double(rec.rating, 1) << "\n";
    }
    return 0;
  }

  study::StudyConfig study_cfg;
  study_cfg.seed =
      static_cast<std::uint64_t>(args.get_int("seed", 2001));
  const media::Catalog catalog = study::make_catalog(study_cfg);
  const world::RegionGraph graph;

  tracer::TracerConfig tracer_cfg;
  tracer_cfg.live_content = args.has("live");
  const auto flags = tools::parse_shared_flags(args, tracer_cfg);
  if (!flags) return 2;
  tracer_cfg.watch_duration =
      seconds_to_sim(args.get_double("watch", 60.0));
  const tracer::RealTracer tracer(catalog, graph, tracer_cfg);

  world::UserProfile user;
  user.country = "US";
  user.us_state = "MA";
  const std::string region = args.get_or("region", "us-east");
  const std::string connection = args.get_or("connection", "dsl");
  const auto parsed_region = parse_region(region);
  const auto parsed_connection = parse_connection(connection);
  if (!parsed_region) {
    std::cerr << "--region expects one of us-east|us-west|europe|asia|japan|"
                 "australia|s-america|middle-east (got '" << region << "')\n";
    return 2;
  }
  if (!parsed_connection) {
    std::cerr << "--connection expects one of modem|dsl|t1 (got '"
              << connection << "')\n";
    return 2;
  }
  user.region = *parsed_region;
  user.group = world::UserRegionGroup::kUsCanada;
  user.connection = *parsed_connection;
  user.pc_class = args.get_or("pc", "Pentium II / 128-256");
  user.isp_load_lo = 0.3;
  user.isp_load_hi = 0.6;
  user.seed = static_cast<std::uint64_t>(args.get_int("seed", 2001));

  const auto clip_arg = args.get_int("clip", 0);
  if (clip_arg < 0 || static_cast<std::size_t>(clip_arg) >= catalog.size()) {
    std::cerr << "--clip must be a playlist index in [0, "
              << catalog.size() - 1 << "] (got " << clip_arg << ")\n";
    return 2;
  }
  const auto playlist_index = static_cast<std::size_t>(clip_arg);
  const std::string protocol = args.get_or("protocol", "auto");
  if (protocol != "auto" && protocol != "tcp") {
    std::cerr << "--protocol expects auto|tcp (got '" << protocol << "')\n";
    return 2;
  }
  const bool force_tcp = protocol == "tcp";

  if (!args.errors().empty()) {
    for (const auto& err : args.errors()) std::cerr << err << "\n";
    return 2;
  }

  obs::MetricsRegistry metrics;
  obs::install_metrics(&metrics);
  std::unique_ptr<obs::StatusServer> status_server;
  if (!tools::start_status_server(*flags, &metrics, status_server)) return 2;
  obs::metrics_gauge_set(obs::MetricGauge::kUsersPlanned, 1);

  const auto rec = tracer.run_single(
      user, playlist_index,
      user.seed * 7919 + playlist_index, force_tcp);
  study::feed_metrics(1, {&rec, 1});
  if (status_server && flags->status_hold_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(flags->status_hold_ms));
  }

  if (!flags->trace_path.empty() && rec.obs.enabled) {
    obs::PlayTrack track;
    track.pid = static_cast<std::uint32_t>(user.id);
    track.tid = static_cast<std::uint32_t>(playlist_index);
    track.process_name =
        "user " + std::to_string(user.id) + " (" +
        std::string(world::connection_class_name(user.connection)) + ")";
    track.thread_name = "clip " + std::to_string(rec.clip_id) + " " +
                        rec.server_name.str();
    track.obs = &rec.obs;
    track.counters = study::chrome_counter_series(rec.series);
    if (!obs::write_chrome_trace(flags->trace_path, {track})) {
      std::cerr << "cannot write trace file: " << flags->trace_path << "\n";
      return 2;
    }
    std::cout << "trace:       " << flags->trace_path << " ("
              << rec.obs.events.size() << " events)\n";
  }
  if (!flags->series_csv.empty()) {
    try {
      study::write_series_csv(flags->series_csv, {rec});
    } catch (const std::exception& e) {
      std::cerr << "cannot write series CSV: " << e.what() << "\n";
      return 2;
    }
    std::cout << "series:      " << flags->series_csv << " ("
              << rec.series.data.size() << " samples)\n";
  }
  if (rec.series.enabled) {
    std::cout << "telemetry:   " << rec.series.data.size()
              << " samples every "
              << util::format_double(to_seconds(rec.series.interval) * 1e3, 0)
              << " ms\n";
  }

  const auto& clip = catalog.clip(playlist_index);
  const auto& stats = rec.stats;
  using util::format_double;
  std::cout << "clip:        " << clip.title() << " ("
            << to_seconds(clip.duration()) << " s, "
            << clip.levels().size() << " levels, served by "
            << rec.server_name << ")\n";
  std::cout << "connection:  "
            << world::connection_class_name(user.connection) << " / "
            << user.pc_class << " / "
            << world::region_name(user.region) << "\n";
  if (!rec.available) {
    std::cout << "result:      clip unavailable (the Fig 10 case)\n";
    return 1;
  }
  std::cout << "transport:   " << net::protocol_name(stats.protocol)
            << (stats.fell_back_to_tcp ? " (fell back from UDP)" : "")
            << (tracer_cfg.live_content ? ", live" : "") << "\n";
  std::cout << "encoded:     "
            << format_double(to_kbps(stats.encoded_bandwidth), 0) << " Kbps @ "
            << format_double(stats.encoded_fps, 1) << " fps\n";
  std::cout << "measured:    "
            << format_double(to_kbps(stats.measured_bandwidth), 0)
            << " Kbps @ " << format_double(stats.measured_fps, 1)
            << " fps\n";
  std::cout << "jitter:      " << format_double(stats.jitter_ms, 1)
            << " ms\n";
  std::cout << "pre-roll:    " << format_double(stats.preroll_seconds, 1)
            << " s, rebuffers: " << stats.rebuffer_events << " ("
            << format_double(stats.rebuffer_seconds, 1) << " s)\n";
  std::cout << "frames:      " << stats.frames_played << " played, "
            << stats.frames_dropped << " dropped, "
            << stats.frames_cpu_scaled << " cpu-scaled\n";
  std::cout << "cpu:         "
            << format_double(stats.cpu_utilization * 100.0, 0) << "%\n";
  if (args.has("samples")) {
    std::cout << "\n t(s)  Kbps   fps\n";
    for (const auto& s : stats.samples) {
      std::cout << "  " << format_double(s.t_seconds, 0) << "\t"
                << format_double(to_kbps(s.bandwidth), 0) << "\t"
                << format_double(s.frame_rate, 0) << "\n";
    }
  }
  return stats.played_any_frame ? 0 : 1;
}
