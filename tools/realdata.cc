// realdata — the study analysis tool (the paper's Notes section promises
// "an accompanying analysis tool called RealData"): query a study's trace
// records from the shared cache, slice them by any dimension, and export.
//
// Commands: summary (study totals, §IV), fig N (one paper figure), slice
// (a metric over the records a filter keeps), users, servers, export [DIR]
// (all records as CSV) and campaign (a bounded-memory scaled study shard).
// `realdata --help` and `realdata COMMAND --help` print the flags each
// command reads, rendered from the tables below; any other flag, and any
// malformed value, is a usage error (exit 2).
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>

#include "obs/chrome_trace.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "shared_flags.h"
#include "stats/csv.h"
#include "stats/summary.h"
#include "study/analysis.h"
#include "study/cache.h"
#include "study/campaign.h"
#include "study/figures.h"
#include "study/telemetry_report.h"
#include "util/args.h"
#include "util/strings.h"

namespace {

using namespace rv;
using study::Records;
using util::format_double;

int cmd_summary(const study::StudyResult& result) {
  std::cout << study::study_summary(result);
  return 0;
}

int cmd_fig(const study::StudyResult& result, const study::StudyConfig& cfg,
            int fig) {
  using F = std::string (*)(const study::StudyResult&);
  static const std::map<int, F> table = {
      {5, &study::fig05_clips_per_user},
      {6, &study::fig06_rated_per_user},
      {7, &study::fig07_user_countries},
      {8, &study::fig08_server_countries},
      {9, &study::fig09_us_states},
      {10, &study::fig10_availability},
      {11, &study::fig11_framerate_all},
      {12, &study::fig12_framerate_by_net},
      {13, &study::fig13_bandwidth_by_net},
      {14, &study::fig14_framerate_by_server_region},
      {15, &study::fig15_framerate_by_user_region},
      {16, &study::fig16_protocol_mix},
      {17, &study::fig17_framerate_by_protocol},
      {18, &study::fig18_bandwidth_by_protocol},
      {19, &study::fig19_framerate_by_pc},
      {20, &study::fig20_jitter_all},
      {21, &study::fig21_jitter_by_net},
      {22, &study::fig22_jitter_by_server_region},
      {23, &study::fig23_jitter_by_user_region},
      {24, &study::fig24_jitter_by_protocol},
      {25, &study::fig25_jitter_by_bandwidth},
      {26, &study::fig26_quality_all},
      {27, &study::fig27_quality_by_net},
      {28, &study::fig28_quality_vs_bandwidth},
  };
  if (fig == 1) {
    std::cout << study::fig01_buffering(cfg);
    return 0;
  }
  const auto it = table.find(fig);
  if (it == table.end()) {
    std::cerr << "no such figure: " << fig << " (1, 5..28)\n";
    return 1;
  }
  std::cout << it->second(result);
  return 0;
}

int cmd_slice(const study::StudyResult& result, const util::Args& args) {
  Records records = result.played();
  if (const auto v = args.get("country")) {
    records = study::filter(records, [&](const tracer::TraceRecord& r) {
      return r.country == *v;
    });
  }
  if (const auto v = args.get("connection")) {
    records = study::filter(records, [&](const tracer::TraceRecord& r) {
      const auto name = world::connection_class_name(r.connection);
      return (*v == "modem" && name == "56k Modem") ||
             (*v == "dsl" && name == "DSL/Cable") ||
             (*v == "t1" && name == "T1/LAN") || name == *v;
    });
  }
  if (const auto v = args.get("protocol")) {
    records = study::filter(records, [&](const tracer::TraceRecord& r) {
      return util::iequals(net::protocol_name(r.stats.protocol), *v);
    });
  }
  if (const auto v = args.get("server")) {
    records = study::filter(records, [&](const tracer::TraceRecord& r) {
      return r.server_name == *v;
    });
  }
  if (records.empty()) {
    std::cout << "no records match\n";
    return 1;
  }
  using Metric = std::vector<double> (*)(const Records&);
  static const std::map<std::string, Metric> metrics = {
      {"fps", &study::frame_rates},
      {"jitter", &study::jitters_ms},
      {"bandwidth", &study::bandwidths_kbps},
      {"rating", &study::ratings}};
  const std::string metric = args.get_or("metric", "fps");
  const std::vector<double> values = metrics.at(metric)(records);
  if (values.empty()) {
    std::cout << "no values (rating requires rated records)\n";
    return 1;
  }
  stats::Summary summary;
  summary.add_all(values);
  std::cout << records.size() << " records, metric=" << metric << "\n";
  std::cout << "  mean   " << format_double(summary.mean(), 2) << "\n";
  std::cout << "  stddev " << format_double(summary.stddev(), 2) << "\n";
  std::cout << "  min    " << format_double(summary.min(), 2) << "\n";
  std::cout << "  p25    " << format_double(stats::quantile(values, 0.25), 2)
            << "\n";
  std::cout << "  median " << format_double(stats::quantile(values, 0.50), 2)
            << "\n";
  std::cout << "  p75    " << format_double(stats::quantile(values, 0.75), 2)
            << "\n";
  std::cout << "  max    " << format_double(summary.max(), 2) << "\n";
  return 0;
}

int cmd_users(const study::StudyResult& result) {
  std::map<int, std::pair<int, int>> counts;  // id -> (played, rated)
  for (const auto& r : result.records) {
    if (r.analyzable()) ++counts[r.user_id].first;
    if (r.rated()) ++counts[r.user_id].second;
  }
  std::cout << "id  country        state conn        plays rated\n";
  for (const auto& u : result.users) {
    const auto it = counts.find(u.id);
    std::cout << "  " << u.id << "\t" << u.country << "\t" << u.us_state
              << "\t" << world::connection_class_name(u.connection) << "\t"
              << (it == counts.end() ? 0 : it->second.first) << "\t"
              << (it == counts.end() ? 0 : it->second.second)
              << (u.rtsp_blocked ? "\t(rtsp blocked, excluded)" : "")
              << "\n";
  }
  return 0;
}

int cmd_servers(const study::StudyResult& result) {
  const auto played = result.played();
  const auto unavailable = study::unavailability_by_server(result.accesses());
  std::map<std::string, Records> by_server;
  for (const auto* r : played) by_server[r->server_name].push_back(r);
  std::cout << "server        plays  mean-fps  mean-jitter  unavailable\n";
  for (const auto& [name, records] : by_server) {
    std::cout << "  " << name
              << std::string(name.size() < 13 ? 13 - name.size() : 1, ' ')
              << records.size() << "\t"
              << format_double(stats::mean_of(study::frame_rates(records)), 1)
              << "\t"
              << format_double(stats::mean_of(study::jitters_ms(records)), 0)
              << "ms\t"
              << format_double(
                     (unavailable.count(name) != 0u ? unavailable.at(name)
                                                    : 0.0) * 100.0, 1)
              << "%\n";
  }
  return 0;
}

int cmd_export(const study::StudyResult& result, const std::string& dir) {
  std::filesystem::create_directories(dir);
  stats::CsvWriter csv(dir + "/records.csv");
  csv.write_row({"user_id", "country", "state", "user_region", "connection",
                 "pc_class", "server", "server_country", "clip_id",
                 "available", "protocol", "encoded_kbps", "measured_kbps",
                 "encoded_fps", "measured_fps", "jitter_ms", "frames_played",
                 "frames_dropped", "rebuffer_events", "preroll_sec",
                 "cpu_utilization", "rating"});
  for (const auto& r : result.records) {
    if (r.rtsp_blocked_user) continue;
    csv.write_row(
        {std::to_string(r.user_id), r.country, r.us_state,
         std::string(world::user_region_group_name(r.user_group)),
         std::string(world::connection_class_name(r.connection)), r.pc_class,
         r.server_name, r.server_country, std::to_string(r.clip_id),
         r.available ? "1" : "0",
         std::string(net::protocol_name(r.stats.protocol)),
         format_double(to_kbps(r.stats.encoded_bandwidth), 1),
         format_double(to_kbps(r.stats.measured_bandwidth), 1),
         format_double(r.stats.encoded_fps, 2),
         format_double(r.stats.measured_fps, 2),
         format_double(r.stats.jitter_ms, 1),
         std::to_string(r.stats.frames_played),
         std::to_string(r.stats.frames_dropped),
         std::to_string(r.stats.rebuffer_events),
         format_double(r.stats.preroll_seconds, 2),
         format_double(r.stats.cpu_utilization, 3),
         r.rated() ? format_double(r.rating, 2) : "-"});
  }
  std::cout << "wrote " << dir << "/records.csv\n";
  return 0;
}

int cmd_write_trace(const study::StudyResult& result,
                    const std::string& path) {
  std::vector<obs::PlayTrack> tracks;
  int last_user = -1;
  std::uint32_t tid = 0;
  for (const auto& r : result.records) {
    // Records are in plan order (user-major, play-minor), so the running
    // index within a user is the play index --trace-play filters on.
    if (r.user_id != last_user) {
      last_user = r.user_id;
      tid = 0;
    } else {
      ++tid;
    }
    if (!r.obs.enabled) continue;
    obs::PlayTrack t;
    t.pid = static_cast<std::uint32_t>(r.user_id);
    t.tid = tid;
    t.process_name =
        "user " + std::to_string(r.user_id) + " (" +
        std::string(world::connection_class_name(r.connection)) + ", " +
        r.country.str() + ")";
    t.thread_name = "play " + std::to_string(tid) + " clip " +
                    std::to_string(r.clip_id) + " " + r.server_name.str();
    t.obs = &r.obs;
    t.counters = study::chrome_counter_series(r.series);
    tracks.push_back(t);
  }
  if (!obs::write_chrome_trace(path, tracks)) {
    std::cerr << "cannot write trace file: " << path << "\n";
    return 1;
  }
  const obs::Counters totals = study::counter_totals(result.records);
  std::cout << "wrote " << path << " (" << tracks.size()
            << " traced plays)\n";
  for (std::size_t i = 0; i < std::size(obs::kCounterInfo); ++i) {
    std::cout << "  " << obs::kCounterInfo[i].name << " = " << totals.v[i]
              << "\n";
  }
  return 0;
}

// Parses a strict "i/N" shard spec into (index, count). Returns false on
// anything else (missing slash, non-integers, i >= N, N < 1).
bool parse_shard(const std::string& spec, std::uint32_t* index,
                 std::uint32_t* count) {
  const auto slash = spec.find('/');
  if (slash == std::string::npos) return false;
  const auto i = util::parse_int(spec.substr(0, slash));
  const auto n = util::parse_int(spec.substr(slash + 1));
  if (!i || !n || *n < 1 || *i < 0 || *i >= *n) return false;
  *index = static_cast<std::uint32_t>(*i);
  *count = static_cast<std::uint32_t>(*n);
  return true;
}

// realdata campaign: a bounded-memory scaled study shard (see
// study/campaign.h). Unlike the other commands it never touches the study
// cache — its output is the mergeable rollup (and optional spill), not an
// in-memory StudyResult.
int cmd_campaign(const study::StudyConfig& study_cfg, const util::Args& args,
                 const std::string& heartbeat_dir) {
  study::CampaignConfig cc;
  cc.study = study_cfg;
  cc.plays_scale = static_cast<std::uint64_t>(args.get_int("plays-scale", 1));
  if (const auto shard = args.get("shard")) {
    if (!parse_shard(*shard, &cc.shard_index, &cc.shard_count)) {
      std::cerr << "--shard expects i/N with 0 <= i < N (got '" << *shard
                << "')\n";
      return 2;
    }
  }
  cc.spill_dir = args.get_or("spill-dir", "");
  cc.chunk_users = static_cast<std::uint64_t>(args.get_int("chunk-users", 63));
  cc.study.tracer.watch_duration =
      seconds_to_sim(args.get_double("watch", 60.0));
  const std::string rollup_out = args.get_or("rollup-out", "");

  // Shard label on every exported series, so a Prometheus scrape of N
  // shards stays distinguishable.
  if (obs::MetricsRegistry* reg = obs::installed_metrics()) {
    if (cc.shard_count > 1) {
      reg->set_common_label("shard", std::to_string(cc.shard_index));
    }
  }

  // Refreshes DIR/heartbeat-<i>.json (atomic rename) from the same registry
  // snapshot the /progress endpoint serves. Best-effort: a failing disk
  // must not kill the campaign, so failures only warn.
  const auto emit_heartbeat = [&](const char* status) {
    if (heartbeat_dir.empty()) return;
    obs::MetricsRegistry* reg = obs::installed_metrics();
    if (reg == nullptr) return;
    const obs::ProgressSnapshot snap = obs::snapshot_progress(*reg);
    obs::Heartbeat hb;
    hb.shard_index = cc.shard_index;
    hb.shard_count = cc.shard_count;
    hb.pid = static_cast<std::int64_t>(::getpid());
    hb.timestamp_unix = obs::wall_clock_unix();
    hb.status = status;
    hb.users_done = snap.users_done;
    hb.users_total = snap.users_total;
    hb.plays = snap.plays;
    hb.last_fold_user = static_cast<std::uint64_t>(
        reg->gauge(obs::MetricGauge::kLastFoldUser));
    hb.plays_per_sec = snap.plays_per_sec;
    hb.rss_kb = snap.rss_kb;
    hb.seed = cc.study.seed;
    std::string err;
    if (!obs::write_heartbeat(heartbeat_dir, hb, &err)) {
      std::cerr << "heartbeat: " << err << "\n";
    }
  };

  // Coarse progress to stderr (~every 5%), so multi-hour campaigns are
  // observable without flooding the log. Rate and ETA come from the same
  // registry snapshot the /progress endpoint serves — one source of truth,
  // no second clock path. The heartbeat refreshes on every chunk.
  std::uint64_t last_decile = 0;
  cc.progress = [&](std::uint64_t plays, std::uint64_t done,
                    std::uint64_t total) {
    const std::uint64_t pct = total == 0 ? 100 : 100 * done / total;
    if (pct / 5 > last_decile || done == total) {
      last_decile = pct / 5;
      std::cerr << "campaign: " << done << "/" << total << " users, " << plays
                << " plays";
      if (obs::MetricsRegistry* reg = obs::installed_metrics()) {
        const obs::ProgressSnapshot snap = obs::snapshot_progress(*reg);
        std::cerr << ", " << format_double(snap.plays_per_sec, 1)
                  << " plays/s";
        if (snap.eta_seconds >= 0.0) {
          std::cerr << ", ETA " << format_double(snap.eta_seconds, 0) << "s";
        }
      }
      std::cerr << "\n";
    }
    emit_heartbeat("running");
  };

  const study::CampaignResult res = study::run_campaign(cc);
  emit_heartbeat("done");
  const double per_core =
      res.execute_seconds > 0.0
          ? static_cast<double>(res.plays) /
                (res.execute_seconds * res.threads)
          : 0.0;
  std::cout << "campaign: shard " << cc.shard_index << "/" << cc.shard_count
            << ", scale " << cc.plays_scale << ": " << res.plays
            << " plays over " << res.users << " users\n";
  std::cout << "throughput: " << format_double(per_core, 1)
            << " plays/s/core (" << format_double(res.execute_seconds, 1)
            << " s wall, " << res.threads << " thread(s))\n";
  std::cout << "peak rss: " << res.peak_rss_kb << " KiB\n";
  if (!res.spill_path.empty()) {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(res.spill_path, ec);
    std::cout << "spill: " << res.spill_path << " ("
              << (ec ? 0 : static_cast<std::uintmax_t>(bytes))
              << " bytes)\nrollup: " << res.rollup_path << "\n";
  }
  if (!rollup_out.empty()) {
    if (!res.rollup.save(rollup_out)) {
      std::cerr << "cannot write rollup file: " << rollup_out << "\n";
      return 1;
    }
    std::cout << "rollup: " << rollup_out << "\n";
  }
  std::cout << "\n" << res.rollup.render();
  if (cc.study.profile) {
    std::cout << "\n" << study::profile_report(res.profile);
  }
  return 0;
}

using util::FlagKind;
using util::FlagSpec;

// The rows every command reads: the simulated study's configuration and the
// shared flags.
const std::vector<FlagSpec> kRunFlags =
    util::join({{{"scale", FlagKind::kReal, "X", 0, 1},
                 {"seed", FlagKind::kInt, "N"},
                 {"threads", FlagKind::kInt, "N", 0, 1024},
                 {"faults"},
                 util::beside({"outage-scale", FlagKind::kReal, "X"},
                              "faults"),
                 {"profile"}},
                tools::kSharedFlags});

// The study commands also read the cache and write the in-memory outputs.
const std::vector<FlagSpec> kStudyFlags =
    util::join({kRunFlags,
                {{"cache-dir", FlagKind::kPath, "DIR"},
                 tools::kTraceFlag,
                 util::beside({"trace-play", FlagKind::kText, "U,P"},
                              "trace"),
                 tools::kSeriesCsvFlag,
                 {"flight-dir", FlagKind::kPath, "DIR"}}});

const util::CommandSpec kCommands[] = {
    {"summary", "", kStudyFlags},
    {"fig", "N", kStudyFlags},
    {"slice", "",
     util::join({kStudyFlags,
                 {{"country", FlagKind::kText, "CC"},
                  {"connection", FlagKind::kChoice,
                   "modem|dsl|t1|56k Modem|DSL/Cable|T1/LAN"},
                  {"protocol", FlagKind::kText, "TCP|UDP"},
                  {"server", FlagKind::kText, "NAME"},
                  {"metric", FlagKind::kChoice,
                   "fps|jitter|bandwidth|rating"}}})},
    {"users", "", kStudyFlags},
    {"servers", "", kStudyFlags},
    {"export", "[DIR]", kStudyFlags},
    {"campaign", "",
     util::join({kRunFlags,
                 {{"plays-scale", FlagKind::kInt, "N", 1},
                  {"shard", FlagKind::kText, "I/N"},
                  {"spill-dir", FlagKind::kPath, "DIR"},
                  {"rollup-out", FlagKind::kPath, "PATH"},
                  {"chunk-users", FlagKind::kInt, "N", 1},
                  {"watch", FlagKind::kReal, "SEC", 0, util::kDaySec},
                  {"heartbeat-dir", FlagKind::kPath, "DIR"}}})},
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv, kCommands);
  const std::string command =
      args.positional().empty() ? "" : args.positional()[0];
  const auto spec = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const util::CommandSpec& c) { return c.name == command; });
  const bool known = spec != std::end(kCommands);
  if (!known || args.has("help")) {
    if (!known && !command.empty()) {
      std::cerr << "unknown command: " << command << "\n";
    }
    std::cout << util::usage("realdata", known ? std::span(spec, 1)
                                               : std::span(kCommands));
    return args.has("help") ? 0 : 1;
  }
  if (!util::check_flags(args, *spec, std::cerr)) return 2;

  study::StudyConfig config;
  config.play_scale = args.get_double("scale", 1.0);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2001));
  config.threads = static_cast<int>(args.get_int("threads", 0));
  tools::apply_shared_flags(args, config.tracer);
  if (args.has("faults")) {
    // Mechanistic fault injection: per-site outage schedules instead of the
    // Bernoulli availability model (plus any FaultConfig defaults).
    config.tracer.faults.enabled = true;
    config.tracer.faults.outage_scale =
        args.get_double("outage-scale", 1.0);
  }
  const std::string trace_path = args.get_or("trace", "");
  const std::string series_csv = args.get_or("series-csv", "");
  const bool want_trace = !trace_path.empty();
  if (const auto tp = args.get("trace-play")) {
    const auto parsed = obs::parse_trace_play(*tp);
    if (!parsed) {
      std::cerr << "--trace-play expects exactly <user,play> with "
                   "non-negative integers (got '" << *tp << "')\n";
      return 2;
    }
    if (want_trace) {
      config.tracer.obs.filter_user = parsed->first;
      config.tracer.obs.filter_play = parsed->second;
    }
  }
  const std::string flight_dir = args.get_or("flight-dir", "");
  // Flight dumps carry the full event ring and the sampled series, so
  // anomaly capture turns telemetry and the obs layer on too.
  if (!flight_dir.empty()) {
    config.tracer.telemetry.enabled = true;
    config.tracer.obs.enabled = true;
  }
  const bool want_telemetry = config.tracer.telemetry.enabled;
  const bool want_profile = args.has("profile");
  config.profile = want_profile;
  const std::string cache_dir = args.get_or("cache-dir", "");

  const std::string heartbeat_dir = args.get_or("heartbeat-dir", "");
  if (!heartbeat_dir.empty()) {
    // Fail fast on an unwritable directory rather than warning once per
    // chunk for the whole campaign.
    std::error_code ec;
    std::filesystem::create_directories(heartbeat_dir, ec);
    const std::string probe = heartbeat_dir + "/.rv-heartbeat-probe";
    if (std::ofstream os(probe); !os || !(os << "probe\n")) {
      std::cerr << "--heartbeat-dir is not writable: " << heartbeat_dir
                << "\n";
      return 2;
    }
    std::filesystem::remove(probe, ec);
  }

  // The registry is always installed (the hooks are near-free and the
  // stderr progress line reads it); the HTTP exporter only with
  // --status-port.
  tools::StatusExporter status;
  if (!status.start(args)) return 2;

  if (command == "campaign") {
    try {
      return cmd_campaign(config, args, heartbeat_dir);
    } catch (const std::exception& e) {
      std::cerr << "campaign failed: " << e.what() << "\n";
      return 1;
    }
  }

  // Traces, series and profiles live only in memory, so such a run cannot be
  // satisfied from the cache; it re-runs and re-saves byte-identical cache
  // contents.
  const bool force_run = want_trace || want_telemetry || want_profile ||
                         config.tracer.obs.enabled;
  const study::StudyResult result =
      study::run_study_cached(config, force_run, cache_dir);
  if (want_trace) {
    const int rc = cmd_write_trace(result, trace_path);
    if (rc != 0) return rc;
  }
  if (!series_csv.empty()) {
    try {
      study::write_series_csv(series_csv, result.records);
    } catch (const std::exception& e) {
      std::cerr << "cannot write series CSV: " << e.what() << "\n";
      return 1;
    }
    std::cout << "wrote " << series_csv << "\n";
  }
  if (!flight_dir.empty()) {
    const int n = study::write_flight_records(flight_dir, result);
    if (n < 0) {
      std::cerr << "cannot write flight records under " << flight_dir << "\n";
      return 1;
    }
    std::cout << "wrote " << n << " flight record(s) under " << flight_dir
              << "\n";
  }

  int rc = 0;
  if (command == "summary") {
    rc = cmd_summary(result);
  } else if (command == "fig") {
    if (args.positional().size() < 2) {
      std::cerr << "fig requires a figure number\n";
      return 1;
    }
    const auto fig = util::parse_int(args.positional()[1]);
    if (!fig) {
      std::cerr << "fig requires a figure number, got '"
                << args.positional()[1] << "'\n";
      return 2;
    }
    rc = cmd_fig(result, config, static_cast<int>(*fig));
  } else if (command == "slice") {
    rc = cmd_slice(result, args);
  } else if (command == "users") {
    rc = cmd_users(result);
  } else if (command == "servers") {
    rc = cmd_servers(result);
  } else if (command == "export") {
    rc = cmd_export(result, args.positional().size() > 1
                                ? args.positional()[1]
                                : "realdata_export");
  }
  // The bottleneck/rollup table and the worker profile ride along after
  // whichever command ran.
  if (want_telemetry) {
    const std::string report = study::telemetry_report(result);
    if (!report.empty()) std::cout << "\n" << report;
  }
  if (want_profile) std::cout << "\n" << study::profile_report(result.profile);
  return rc;
}
