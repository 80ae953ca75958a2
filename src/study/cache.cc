#include "study/cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rv::study {
namespace {

constexpr std::uint32_t kMagic = 0x52565354;  // "RVST"
constexpr std::uint32_t kVersion = 7;

// Where cache files live unless the caller overrides (--cache-dir).
constexpr const char* kDefaultCacheDir = "./.rv_cache";

// --- primitive IO ---------------------------------------------------------

template <typename T>
void put(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool get(std::istream& is, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(is);
}

void put_string(std::ostream& os, const std::string& s) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool get_string(std::istream& is, std::string& s) {
  std::uint32_t n = 0;
  if (!get(is, n) || n > (1u << 20)) return false;
  s.resize(n);
  is.read(s.data(), n);
  return static_cast<bool>(is);
}

void put_stats(std::ostream& os, const client::ClipStats& s) {
  put(os, s.session_established);
  put(os, s.played_any_frame);
  put(os, s.protocol);
  put(os, s.fell_back_to_tcp);
  put(os, s.fell_back_to_http);
  put(os, s.rtsp_retries);
  put(os, s.encoded_bandwidth);
  put(os, s.encoded_fps);
  put(os, s.measured_bandwidth);
  put(os, s.measured_fps);
  put(os, s.jitter_ms);
  put(os, s.frames_played);
  put(os, s.frames_dropped);
  put(os, s.frames_cpu_scaled);
  put(os, s.rebuffer_events);
  put(os, s.rebuffer_seconds);
  put(os, s.preroll_seconds);
  put(os, s.play_seconds);
  put(os, s.cpu_utilization);
  put(os, s.bytes_received);
  put(os, s.packets_received);
  put(os, s.repairs_received);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.samples.size()));
  for (const auto& sample : s.samples) put(os, sample);
}

bool get_stats(std::istream& is, client::ClipStats& s) {
  bool ok = get(is, s.session_established) && get(is, s.played_any_frame) &&
            get(is, s.protocol) && get(is, s.fell_back_to_tcp) &&
            get(is, s.fell_back_to_http) && get(is, s.rtsp_retries) &&
            get(is, s.encoded_bandwidth) && get(is, s.encoded_fps) &&
            get(is, s.measured_bandwidth) && get(is, s.measured_fps) &&
            get(is, s.jitter_ms) && get(is, s.frames_played) &&
            get(is, s.frames_dropped) && get(is, s.frames_cpu_scaled) &&
            get(is, s.rebuffer_events) && get(is, s.rebuffer_seconds) &&
            get(is, s.preroll_seconds) && get(is, s.play_seconds) &&
            get(is, s.cpu_utilization) && get(is, s.bytes_received) &&
            get(is, s.packets_received) && get(is, s.repairs_received);
  if (!ok) return false;
  std::uint32_t n = 0;
  if (!get(is, n) || n > (1u << 20)) return false;
  s.samples.resize(n);
  for (auto& sample : s.samples) {
    if (!get(is, sample)) return false;
  }
  return true;
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
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  put(os, kMagic);
  put(os, kVersion);
  put(os, config_fingerprint(config));

  put<std::uint32_t>(os, static_cast<std::uint32_t>(result.users.size()));
  for (const auto& u : result.users) {
    put(os, u.id);
    put_string(os, u.country);
    put_string(os, u.us_state);
    put(os, u.region);
    put(os, u.group);
    put(os, u.connection);
    put_string(os, u.pc_class);
    put(os, u.udp_blocked);
    put(os, u.rtsp_blocked);
    put(os, u.clips_to_play);
    put(os, u.clips_to_rate);
    put(os, u.isp_load_lo);
    put(os, u.isp_load_hi);
    put(os, u.seed);
  }

  put<std::uint32_t>(os, static_cast<std::uint32_t>(result.records.size()));
  for (const auto& r : result.records) {
    put(os, r.user_id);
    put_string(os, r.country);
    put_string(os, r.us_state);
    put(os, r.user_group);
    put(os, r.connection);
    put_string(os, r.pc_class);
    put(os, r.rtsp_blocked_user);
    put(os, r.clip_id);
    put<std::uint64_t>(os, r.site);
    put_string(os, r.server_name);
    put_string(os, r.server_country);
    put(os, r.server_group);
    put(os, r.available);
    put_stats(os, r.stats);
    put(os, r.rating);
  }
  return static_cast<bool>(os);
}

std::optional<StudyResult> load_result(const std::string& path,
                                       const StudyConfig& config) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
  if (!get(is, magic) || magic != kMagic) return std::nullopt;
  if (!get(is, version) || version != kVersion) return std::nullopt;
  if (!get(is, fingerprint) || fingerprint != config_fingerprint(config)) {
    return std::nullopt;
  }

  StudyResult result;
  std::uint32_t n_users = 0;
  if (!get(is, n_users) || n_users > 10'000) return std::nullopt;
  result.users.resize(n_users);
  for (auto& u : result.users) {
    if (!(get(is, u.id) && get_string(is, u.country) &&
          get_string(is, u.us_state) && get(is, u.region) &&
          get(is, u.group) && get(is, u.connection) &&
          get_string(is, u.pc_class) && get(is, u.udp_blocked) &&
          get(is, u.rtsp_blocked) && get(is, u.clips_to_play) &&
          get(is, u.clips_to_rate) && get(is, u.isp_load_lo) &&
          get(is, u.isp_load_hi) && get(is, u.seed))) {
      return std::nullopt;
    }
  }

  std::uint32_t n_records = 0;
  if (!get(is, n_records) || n_records > 1'000'000) return std::nullopt;
  result.records.resize(n_records);
  // Record naming fields are pooled Symbols: decode into scratch strings,
  // then intern. The serialized bytes are unchanged from the std::string
  // era, so pinned cache md5s survive the interning.
  std::string country, us_state, pc_class, server_name, server_country;
  for (auto& r : result.records) {
    std::uint64_t site = 0;
    if (!(get(is, r.user_id) && get_string(is, country) &&
          get_string(is, us_state) && get(is, r.user_group) &&
          get(is, r.connection) && get_string(is, pc_class) &&
          get(is, r.rtsp_blocked_user) && get(is, r.clip_id) &&
          get(is, site) && get_string(is, server_name) &&
          get_string(is, server_country) && get(is, r.server_group) &&
          get(is, r.available) && get_stats(is, r.stats) &&
          get(is, r.rating))) {
      return std::nullopt;
    }
    r.country = country;
    r.us_state = us_state;
    r.pc_class = pc_class;
    r.server_name = server_name;
    r.server_country = server_country;
    r.site = site;
  }
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
