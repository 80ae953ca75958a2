#include "study/cache.h"

#include <cstdio>
#include <filesystem>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rv::study {
namespace {

constexpr std::uint32_t kMagic = 0x52565354;  // "RVST"
constexpr std::uint32_t kVersion = 7;

// Where cache files live unless the caller overrides (--cache-dir).
constexpr const char* kDefaultCacheDir = "./.rv_cache";

// Fixed caps on decoded counts; the reader also bounds each by the bytes
// left.
constexpr std::size_t kMaxUsers = 10'000;
constexpr std::size_t kMaxRecords = 1'000'000;
constexpr std::size_t kMaxSamples = 1u << 20;

// The RVST field lists, one per struct, shared by save_result (Io =
// util::ByteWriter) and load_result (Io = util::ByteReader).

// Record naming fields are pooled Symbols stored as plain strings: the
// bytes are those of the std::string fields they replaced.
void symbol(util::ByteWriter& w, util::Symbol s) { w.str(s.str()); }
void symbol(util::ByteReader& r, util::Symbol& s) {
  std::string_view v;
  r.str(v);
  if (r.ok()) s = util::Symbol(v);
}

template <class Io, class User>
void user_fields(Io& io, User& u) {
  io.i32(u.id);
  io.str(u.country);
  io.str(u.us_state);
  io.enum_i32(u.region, world::kRegionCount);
  io.enum_i32(u.group, world::kUserRegionGroupCount);
  io.enum_i32(u.connection, world::kConnectionClassCount);
  io.str(u.pc_class);
  io.boolean(u.udp_blocked);
  io.boolean(u.rtsp_blocked);
  io.i32(u.clips_to_play);
  io.i32(u.clips_to_rate);
  io.f64(u.isp_load_lo);
  io.f64(u.isp_load_hi);
  io.u64(u.seed);
}

template <class Io, class Stats>
void stats_fields(Io& io, Stats& s) {
  io.boolean(s.session_established);
  io.boolean(s.played_any_frame);
  io.enum_u8(s.protocol, net::kProtocolCount);
  io.boolean(s.fell_back_to_tcp);
  io.boolean(s.fell_back_to_http);
  io.i32(s.rtsp_retries);
  io.f64(s.encoded_bandwidth);
  io.f64(s.encoded_fps);
  io.f64(s.measured_bandwidth);
  io.f64(s.measured_fps);
  io.f64(s.jitter_ms);
  io.i64(s.frames_played);
  io.i64(s.frames_dropped);
  io.i64(s.frames_cpu_scaled);
  io.i32(s.rebuffer_events);
  io.f64(s.rebuffer_seconds);
  io.f64(s.preroll_seconds);
  io.f64(s.play_seconds);
  io.f64(s.cpu_utilization);
  io.i64(s.bytes_received);
  io.i64(s.packets_received);
  io.i64(s.repairs_received);
  io.list(s.samples, kMaxSamples, [&io](auto& sample) {
    io.f64(sample.t_seconds);
    io.f64(sample.bandwidth);
    io.f64(sample.frame_rate);
  });
}

template <class Io, class Record>
void record_fields(Io& io, Record& r) {
  io.i32(r.user_id);
  symbol(io, r.country);
  symbol(io, r.us_state);
  io.enum_i32(r.user_group, world::kUserRegionGroupCount);
  io.enum_i32(r.connection, world::kConnectionClassCount);
  symbol(io, r.pc_class);
  io.boolean(r.rtsp_blocked_user);
  io.u32(r.clip_id);
  io.u64(r.site);
  symbol(io, r.server_name);
  symbol(io, r.server_country);
  io.enum_i32(r.server_group, world::kServerRegionGroupCount);
  io.boolean(r.available);
  stats_fields(io, r.stats);
  io.f64(r.rating);
}

template <class Io, class Result>
void result_fields(Io& io, Result& result) {
  io.list(result.users, kMaxUsers, [&io](auto& u) { user_fields(io, u); });
  io.list(result.records, kMaxRecords,
          [&io](auto& r) { record_fields(io, r); });
}

}  // namespace

std::uint64_t config_fingerprint(const StudyConfig& config) {
  // Hash the textual dump of every behavioural knob.
  const std::string dump = util::str_cat(
      "v", kVersion, "|", config.seed, "|", config.play_scale, "|",
      config.catalog.clips_per_site, "|", config.catalog.playlist_size, "|",
      config.population.seed, "|", config.population.udp_blocked_t1, "|",
      config.population.udp_blocked_dsl, "|",
      config.population.udp_blocked_modem, "|",
      config.population.rtsp_blocked_rate, "|",
      to_seconds(config.tracer.watch_duration), "|",
      config.tracer.direct_tcp_probability, "|",
      static_cast<int>(config.tracer.udp_control), "|",
      config.tracer.surestream_enabled, "|", config.tracer.svt_enabled, "|",
      config.tracer.preroll_media_seconds, "|",
      config.tracer.path.episode_probability, "|",
      config.tracer.path.wan_capacity_cap, "|",
      config.tracer.path.server_access_cap, "|",
      static_cast<int>(config.tracer.path.queue_policy), "|",
      config.tracer.adaptive_packet_size, "|", config.tracer.live_content,
      "|", config.tracer.tcp_sack, "|", config.tracer.faults.enabled, "|",
      config.tracer.faults.seed, "|",
      config.tracer.faults.mechanistic_unavailability, "|",
      to_seconds(config.tracer.faults.campaign_duration), "|",
      to_seconds(config.tracer.faults.mean_outage_duration), "|",
      config.tracer.faults.outage_scale, "|",
      config.tracer.faults.overload_probability, "|",
      config.tracer.faults.overload_stall_lo_sec, "|",
      config.tracer.faults.overload_stall_hi_sec, "|",
      config.tracer.faults.link_down_probability, "|",
      config.tracer.faults.mean_link_down_sec, "|",
      config.tracer.faults.corruption_probability, "|",
      config.tracer.faults.corruption_loss_rate);
  // The congestion-control knob postdates the pinned cache format: it joins
  // the dump only for non-default algorithms, so every existing reno cache
  // keeps its exact filename and bytes (the study md5 gate depends on it).
  if (config.tracer.tcp_cc != transport::CcAlgorithm::kReno) {
    return util::stable_hash(util::str_cat(
        dump, "|cc=", static_cast<int>(config.tracer.tcp_cc)));
  }
  return util::stable_hash(dump);
}

std::string default_cache_path(const StudyConfig& config,
                               const std::string& cache_dir) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "rv_study_%016llx.cache",
                static_cast<unsigned long long>(config_fingerprint(config)));
  const std::string& dir = cache_dir.empty() ? kDefaultCacheDir : cache_dir;
  return dir + "/" + buf;
}

bool save_result(const std::string& path, const StudyConfig& config,
                 const StudyResult& result) {
  util::ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(config_fingerprint(config));
  result_fields(w, result);
  return util::write_file(path, w.bytes());
}

std::optional<StudyResult> load_result(const std::string& path,
                                       const StudyConfig& config) {
  std::string bytes;
  if (!util::read_file(path, bytes)) return std::nullopt;
  util::ByteReader r(bytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
  r.u32(magic);
  r.u32(version);
  r.u64(fingerprint);
  if (!r.ok() || magic != kMagic || version != kVersion ||
      fingerprint != config_fingerprint(config)) {
    return std::nullopt;
  }
  StudyResult result;
  result_fields(r, result);
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return result;
}

StudyResult run_study_cached(const StudyConfig& config, bool force_run,
                             const std::string& cache_dir) {
  const std::string path = default_cache_path(config, cache_dir);
  if (!force_run) {
    if (auto cached = load_result(path, config)) {
      // Feed /metrics exactly as the engine does on a fresh run.
      obs::metrics_add(obs::Metric::kCacheHits);
      obs::metrics_gauge_set(obs::MetricGauge::kUsersPlanned,
                             static_cast<std::int64_t>(cached->users.size()));
      feed_metrics(cached->users.size(), cached->records);
      return std::move(*cached);
    }
  }
  obs::metrics_add(obs::Metric::kCacheMisses);
  StudyResult result = run_study(config);
  // Cache files live in a dedicated directory (never the repo root); create
  // it on demand so a fresh checkout works without setup.
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  save_result(path, config, result);
  return result;
}

}  // namespace rv::study
