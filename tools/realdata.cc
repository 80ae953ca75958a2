// realdata — the study analysis tool (the paper's Notes section promises
// "an accompanying analysis tool called RealData"): query a study's trace
// records from the shared cache, slice them by any dimension, and export.
//
// Usage:
//   realdata summary                       study totals (§IV)
//   realdata fig <5..28>                   regenerate one paper figure
//   realdata slice [--country US] [--connection modem|dsl|t1]
//                  [--protocol TCP|UDP] [--server US/CNN]
//                  [--metric fps|jitter|bandwidth|rating]
//   realdata users                         per-user play/rate counts
//   realdata servers                       per-server stats
//   realdata export <dir>                  all records as CSV
//
// Flags: --scale <0..1> (fraction of the study to simulate if no cache),
//        --seed <n>, --threads <n>.
//        --trace <path> (Chrome trace_event JSON of every play; forces a
//        fresh run since traces are never cached) and
//        --trace-play <user,play> (restrict tracing to one play).
//        --telemetry (per-play time-series sampling),
//        --telemetry-interval-ms <n> (sim-time sample spacing, default 500),
//        --series-csv <path> (export every sampled series as CSV),
//        --flight-dir <dir> (anomaly flight-recorder JSON dumps; implies
//        --telemetry and event tracing), --profile (worker self-profile).
//        Like --trace, these force a fresh run: series live only in memory.
//        Malformed numeric flag values are an error (exit 2), not a
//        silent fallback to the default.
//        --status-port <0..65535> (embedded HTTP status exporter on
//        127.0.0.1: GET /metrics Prometheus text, /progress JSON, /healthz;
//        0 picks an ephemeral port, announced on stderr),
//        --status-hold-ms <n> (keep serving n ms after the command
//        finishes, for scrapers), --heartbeat-dir <dir> (campaign only:
//        atomic-rename shard heartbeat JSON refreshed per chunk; see
//        `rvmerge --status`). All wall-clock-side: the study cache bytes
//        are identical with the exporter on or off.
#include <unistd.h>

#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

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
  const std::string metric = args.get_or("metric", "fps");
  std::vector<double> values;
  if (metric == "jitter") {
    values = study::jitters_ms(records);
  } else if (metric == "bandwidth") {
    values = study::bandwidths_kbps(records);
  } else if (metric == "rating") {
    values = study::ratings(records);
  } else {
    values = study::frame_rates(records);
  }
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
  const auto plays_scale = args.get_int("plays-scale", 1);
  if (plays_scale < 1) {
    std::cerr << "--plays-scale must be a positive integer (got "
              << plays_scale << ")\n";
    return 2;
  }
  cc.plays_scale = static_cast<std::uint64_t>(plays_scale);
  if (const auto shard = args.get("shard")) {
    if (!parse_shard(*shard, &cc.shard_index, &cc.shard_count)) {
      std::cerr << "--shard expects i/N with 0 <= i < N (got '" << *shard
                << "')\n";
      return 2;
    }
  }
  if (args.has("spill-dir")) {
    cc.spill_dir = args.get_or("spill-dir", "");
    if (cc.spill_dir.empty()) {
      std::cerr << "--spill-dir requires a directory\n";
      return 2;
    }
  }
  const auto chunk_users = args.get_int("chunk-users", 63);
  if (chunk_users < 1) {
    std::cerr << "--chunk-users must be a positive integer (got "
              << chunk_users << ")\n";
    return 2;
  }
  cc.chunk_users = static_cast<std::uint64_t>(chunk_users);
  const double watch = args.get_double("watch", 60.0);
  if (args.has("watch") && !(watch > 0.0)) {
    std::cerr << "--watch must be a positive number of seconds\n";
    return 2;
  }
  cc.study.tracer.watch_duration = seconds_to_sim(watch);
  const std::string rollup_out = args.get_or("rollup-out", "");
  if (args.has("rollup-out") && rollup_out.empty()) {
    std::cerr << "--rollup-out requires a file path\n";
    return 2;
  }
  if (!args.errors().empty()) {
    for (const auto& err : args.errors()) std::cerr << err << "\n";
    return 2;
  }

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

// Keeps the status exporter serving a little longer after the command
// finishes (so a scraper polling /progress can observe the final state),
// simply by delaying the StatusServer destructor.
struct StatusHold {
  std::int64_t ms = 0;
  ~StatusHold() {
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv, {"help", "faults", "telemetry", "profile"});
  if (args.positional().empty() || args.has("help")) {
    std::cout << "usage: realdata <summary|fig N|slice|users|servers|"
                 "export DIR|campaign> [--scale X] [--seed N] [--threads N] "
                 "[--cc reno|cubic|bbr] [--cache-dir DIR] "
                 "[--faults [--outage-scale X]] [--trace PATH "
                 "[--trace-play U,P]] [--telemetry] "
                 "[--telemetry-interval-ms N] [--series-csv PATH] "
                 "[--flight-dir DIR] [--profile] [--status-port P "
                 "[--status-hold-ms N]] [slice flags]\n"
                 "       realdata campaign [--plays-scale N] [--shard i/N] "
                 "[--spill-dir DIR] [--rollup-out PATH] [--chunk-users N] "
                 "[--watch SEC] [--heartbeat-dir DIR]\n";
    return args.has("help") ? 0 : 1;
  }
  const auto unknown = args.unknown_flags(
      {"scale", "seed", "threads", "cc", "cache-dir", "outage-scale", "trace",
       "trace-play", "telemetry-interval-ms", "series-csv", "flight-dir",
       "status-port", "status-hold-ms", "country", "connection", "protocol",
       "server", "metric", "plays-scale", "shard", "spill-dir", "rollup-out",
       "chunk-users", "watch", "heartbeat-dir"});
  for (const auto& flag : unknown) {
    std::cerr << "unknown flag " << flag << "\n";
  }
  if (!unknown.empty()) return 2;

  study::StudyConfig config;
  config.play_scale = args.get_double("scale", 1.0);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2001));
  const auto threads = args.get_int("threads", 0);
  if (threads < 0 || threads > 1024) {
    std::cerr << "--threads must be in [0, 1024] (0 = all cores), got "
              << threads << "\n";
    return 2;
  }
  config.threads = static_cast<int>(threads);
  if (!(config.play_scale > 0.0 && config.play_scale <= 1.0)) {
    std::cerr << "--scale must be in (0, 1], got " << config.play_scale
              << "\n";
    return 2;
  }
  const auto flags = tools::parse_shared_flags(args, config.tracer);
  if (!flags) return 2;
  if (args.has("faults")) {
    // Mechanistic fault injection: per-site outage schedules instead of the
    // Bernoulli availability model (plus any FaultConfig defaults).
    config.tracer.faults.enabled = true;
    config.tracer.faults.outage_scale =
        args.get_double("outage-scale", 1.0);
  }
  const bool want_trace = !flags->trace_path.empty();
  if (want_trace) {
    if (const auto tp = args.get("trace-play")) {
      const auto parsed = obs::parse_trace_play(*tp);
      if (!parsed) {
        std::cerr << "--trace-play expects exactly <user,play> with "
                     "non-negative integers (got '" << *tp << "')\n";
        return 2;
      }
      config.tracer.obs.filter_user = parsed->first;
      config.tracer.obs.filter_play = parsed->second;
    }
  }
  const bool want_flight = args.has("flight-dir");
  const std::string flight_dir = args.get_or("flight-dir", "");
  if (want_flight && flight_dir.empty()) {
    std::cerr << "--flight-dir requires a directory\n";
    return 2;
  }
  // Flight dumps carry the full event ring and the sampled series, so
  // anomaly capture turns telemetry and the obs layer on too.
  if (want_flight) {
    config.tracer.telemetry.enabled = true;
    config.tracer.obs.enabled = true;
  }
  const bool want_telemetry = config.tracer.telemetry.enabled;
  const bool want_profile = args.has("profile");
  config.profile = want_profile;

  const std::string cache_dir = args.get_or("cache-dir", "");
  if (args.has("cache-dir") && cache_dir.empty()) {
    std::cerr << "--cache-dir requires a directory\n";
    return 2;
  }

  std::string heartbeat_dir;
  if (args.has("heartbeat-dir")) {
    heartbeat_dir = args.get_or("heartbeat-dir", "");
    if (heartbeat_dir.empty()) {
      std::cerr << "--heartbeat-dir requires a directory\n";
      return 2;
    }
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
  // --status-port. Declaration order matters: the hold sleeps first, then
  // the server stops, then the registry dies.
  obs::MetricsRegistry metrics;
  obs::install_metrics(&metrics);
  std::unique_ptr<obs::StatusServer> status_server;
  StatusHold status_hold;
  if (!tools::start_status_server(*flags, &metrics, status_server)) return 2;
  if (status_server) status_hold.ms = flags->status_hold_ms;

  if (args.positional()[0] == "campaign") {
    try {
      return cmd_campaign(config, args, heartbeat_dir);
    } catch (const std::exception& e) {
      std::cerr << "campaign failed: " << e.what() << "\n";
      return 1;
    }
  }

  if (!args.errors().empty()) {
    for (const auto& err : args.errors()) std::cerr << err << "\n";
    return 2;
  }
  // Traces, series and profiles live only in memory, so such a run cannot be
  // satisfied from the cache; it re-runs and re-saves byte-identical cache
  // contents.
  const bool force_run = want_trace || want_telemetry || want_profile ||
                         config.tracer.obs.enabled;
  const study::StudyResult result =
      study::run_study_cached(config, force_run, cache_dir);
  if (want_trace) {
    const int rc = cmd_write_trace(result, flags->trace_path);
    if (rc != 0) return rc;
  }
  if (!flags->series_csv.empty()) {
    try {
      study::write_series_csv(flags->series_csv, result.records);
    } catch (const std::exception& e) {
      std::cerr << "cannot write series CSV: " << e.what() << "\n";
      return 1;
    }
    std::cout << "wrote " << flags->series_csv << "\n";
  }
  if (want_flight) {
    const int n = study::write_flight_records(flight_dir, result);
    if (n < 0) {
      std::cerr << "cannot write flight records under " << flight_dir << "\n";
      return 1;
    }
    std::cout << "wrote " << n << " flight record(s) under " << flight_dir
              << "\n";
  }

  int rc = 1;
  const std::string& command = args.positional()[0];
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
  } else {
    std::cerr << "unknown command: " << command << "\n";
    return 1;
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
