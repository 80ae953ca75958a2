// retracer — play one clip through the simulator and print the RealTracer
// record, like running the paper's instrumented player once.
//
// Examples:
//   retracer --connection modem --clip 8
//   retracer --connection dsl --region australia --protocol tcp --samples
//
// --trace writes the play's event trace as Chrome trace_event JSON (load in
// chrome://tracing or ui.perfetto.dev; see docs/OBSERVABILITY.md);
// --telemetry samples the play's time series, and --series-csv exports it.
// --status-port serves GET /metrics, /progress and /healthz on 127.0.0.1
// while the play runs.
//
// The other mode, --spill-read PATH [--spill-record K], seeks record K out
// of a campaign spill file and prints it: the random-access path over
// spilled records. `retracer --help` prints the flags each mode reads,
// rendered from the tables below; any other flag, and any malformed value,
// is a usage error (exit 2).
#include <exception>
#include <iostream>

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

world::Region parse_region(const std::string& s) {
  for (int i = 0; i < world::kRegionCount; ++i) {
    const auto region = static_cast<world::Region>(i);
    if (world::region_name(region) == s) return region;
  }
  return world::Region::kUsEast;
}

using util::FlagKind;

// The play mode, then the spill-read mode.
const util::CommandSpec kModes[] = {
    {.flags = util::join({tools::kPlayFlags,
                          {{"pc", FlagKind::kText, "CLASS"},
                           {"region", FlagKind::kChoice,
                            "us-east|us-west|europe|asia|japan|australia|"
                            "s-america|middle-east"},
                           {"live"},
                           {"watch", FlagKind::kReal, "SEC", 0,
                            util::kDaySec},
                           {"samples"},
                           tools::kTraceFlag,
                           tools::kSeriesCsvFlag},
                          tools::kSharedFlags})},
    {.flags = {util::required({"spill-read", FlagKind::kPath, "PATH"}),
               {"spill-record", FlagKind::kInt, "K", 0}}},
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv, kModes);
  if (args.has("help")) {
    std::cout << util::usage("retracer", kModes);
    return 0;
  }
  const bool spill = args.has("spill-read");
  if (!util::check_flags(args, kModes[spill ? 1 : 0], std::cerr)) return 2;

  if (spill) {
    const std::string spill_path = args.get_or("spill-read", "");
    const auto record_index = args.get_int("spill-record", 0);
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
  tools::apply_shared_flags(args, tracer_cfg);
  tracer_cfg.watch_duration =
      seconds_to_sim(args.get_double("watch", 60.0));
  const tracer::RealTracer tracer(catalog, graph, tracer_cfg);

  world::UserProfile user;
  user.country = "US";
  user.us_state = "MA";
  user.region = parse_region(args.get_or("region", "us-east"));
  user.group = world::UserRegionGroup::kUsCanada;
  user.connection = tools::parse_connection(args.get_or("connection", "dsl"));
  user.pc_class = args.get_or("pc", "Pentium II / 128-256");
  user.isp_load_lo = 0.3;
  user.isp_load_hi = 0.6;
  user.seed = static_cast<std::uint64_t>(args.get_int("seed", 2001));
  const auto playlist_index =
      static_cast<std::size_t>(args.get_int("clip", 0));
  const bool force_tcp = args.get_or("protocol", "auto") == "tcp";

  tools::StatusExporter status;
  if (!status.start(args)) return 2;
  obs::metrics_gauge_set(obs::MetricGauge::kUsersPlanned, 1);

  const auto rec = tracer.run_single(
      user, playlist_index,
      user.seed * 7919 + playlist_index, force_tcp);
  study::feed_metrics(1, {&rec, 1});

  const std::string trace_path = args.get_or("trace", "");
  const std::string series_csv = args.get_or("series-csv", "");
  if (!trace_path.empty() && rec.obs.enabled) {
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
    if (!obs::write_chrome_trace(trace_path, {track})) {
      std::cerr << "cannot write trace file: " << trace_path << "\n";
      return 2;
    }
    std::cout << "trace:       " << trace_path << " ("
              << rec.obs.events.size() << " events)\n";
  }
  if (!series_csv.empty()) {
    try {
      study::write_series_csv(series_csv, {rec});
    } catch (const std::exception& e) {
      std::cerr << "cannot write series CSV: " << e.what() << "\n";
      return 2;
    }
    std::cout << "series:      " << series_csv << " ("
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
