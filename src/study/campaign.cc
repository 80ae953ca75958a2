#include "study/campaign.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "obs/metrics.h"
#include "study/engine.h"
#include "study/spill.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/strings.h"
#include "world/path_builder.h"
#include "world/types.h"

namespace rv::study {
namespace {

constexpr std::uint32_t kRollupMagic = 0x55525652;  // "RVRU" little-endian
constexpr std::uint32_t kRollupVersion = 1;

std::int64_t micro(double v) {
  return static_cast<std::int64_t>(std::llround(v * 1e6));
}

double from_micro(std::int64_t u) { return static_cast<double>(u) / 1e6; }

constexpr std::size_t kMaxTableRows = 1u << 20;
constexpr std::size_t kMaxBottleneckLinks = 1u << 10;

// The RVRU field lists, one per struct, shared by serialize (Io =
// util::ByteWriter) and parse (Io = util::ByteReader).

// Geometry, then the nonzero bins in ascending order as (u32 bin,
// u64 weight) pairs. Geometries are compiled in (campaign.h,
// telemetry_report.h): the decoded one must equal the target's, so every
// parsed rollup merges with every other.
template <class Io, class H>
void histogram_fields(Io& io, H& h) {
  double lo = h.lo();
  double hi = h.hi();
  std::uint32_t bins = static_cast<std::uint32_t>(h.bins());
  io.f64(lo);
  io.f64(hi);
  io.u32(bins);
  io.check(lo == h.lo() && hi == h.hi() && bins == h.bins());
  std::vector<std::pair<std::uint32_t, std::uint64_t>> nonzero;
  if constexpr (std::is_const_v<H>) {  // encoding: the pairs come from h
    for (std::uint32_t b = 0; b < h.bins(); ++b) {
      if (h.bin_count(b) != 0) nonzero.emplace_back(b, h.bin_count(b));
    }
  }
  io.list(nonzero, h.bins(), [&io](auto& bin) {
    io.u32(bin.first);
    io.u64(bin.second);
  });
  if constexpr (!std::is_const_v<H>) {  // decoding: the pairs fill h
    for (std::size_t i = 0; i < nonzero.size() && io.ok(); ++i) {
      const std::uint32_t b = nonzero[i].first;
      io.check(b < h.bins() && (i == 0 || nonzero[i - 1].first < b));
      if (io.ok()) h.add_bin(b, nonzero[i].second);
    }
  }
}

template <class Io, class Group>
void group_fields(Io& io, Group& g) {
  io.u64(g.plays);
  histogram_fields(io, g.fps);
  histogram_fields(io, g.bw);
}

template <class Io, class Sketch>
void sketch_fields(Io& io, Sketch& s) {
  histogram_fields(io, s.fps);
  histogram_fields(io, s.bw);
}

template <class Io, class Rollup>
void rollup_fields(Io& io, Rollup& v) {
  for (auto* n :
       {&v.user_first, &v.user_count, &v.records, &v.accesses, &v.unavailable,
        &v.played, &v.rated, &v.udp_plays, &v.tcp_plays, &v.tcp_fallbacks,
        &v.http_fallbacks, &v.rtsp_retries, &v.rebuffer_events,
        &v.frames_played, &v.frames_dropped, &v.frames_cpu_scaled,
        &v.bytes_received, &v.packets_received, &v.repairs_received}) {
    io.u64(*n);
  }
  for (auto* sum : {&v.sum_fps_u, &v.sum_bw_kbps_u, &v.sum_jitter_ms_u,
                    &v.sum_preroll_s_u, &v.sum_rebuffer_s_u, &v.sum_play_s_u,
                    &v.sum_rating_u}) {
    io.i64(*sum);
  }
  for (auto* h : {&v.h_fps, &v.h_bw, &v.h_jitter, &v.h_preroll, &v.h_rating}) {
    histogram_fields(io, *h);
  }
  for (auto* table : {&v.by_class, &v.by_region, &v.by_server}) {
    io.map(*table, kMaxTableRows, [&io](auto& g) { group_fields(io, g); });
  }
  auto& tel = v.telemetry;
  io.u64(tel.plays);
  io.u64(tel.samples);
  for (auto* table : {&tel.by_class, &tel.by_region, &tel.by_server}) {
    io.map(*table, kMaxTableRows, [&io](auto& s) { sketch_fields(io, s); });
  }
  io.map(tel.bottleneck, kMaxTableRows, [&io](auto& row) {
    io.list(row, kMaxBottleneckLinks, [&io](auto& n) { io.i64(n); });
  });
}

std::string mean_of(std::int64_t sum_u, std::uint64_t n, int decimals) {
  if (n == 0) return "-";
  return util::format_double(from_micro(sum_u) / static_cast<double>(n),
                             decimals);
}

std::string percent_of(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  return util::format_double(
      100.0 * static_cast<double>(part) / static_cast<double>(whole), 1);
}

void append_group_table(std::string& out, const std::string& title,
                        const std::map<std::string, CampaignGroup>& groups) {
  out += "  by ";
  out += title;
  out += ":\n";
  for (const auto& [label, g] : groups) {
    out += util::str_cat("    ", pad_right(label, 18),
                         pad_left(std::to_string(g.plays), 10),
                         pad_left(quantile_triplet(g.fps, 1), 18),
                         pad_left(quantile_triplet(g.bw, 0), 18), "\n");
  }
}

}  // namespace

void CampaignGroup::fold(const tracer::TraceRecord& rec) {
  ++plays;
  fps.add(rec.stats.measured_fps);
  bw.add(to_kbps(rec.stats.measured_bandwidth));
}

void CampaignGroup::merge(const CampaignGroup& other) {
  plays += other.plays;
  fps.merge(other.fps);
  bw.merge(other.bw);
}

void CampaignRollup::fold(const tracer::TraceRecord& rec) {
  ++records;
  telemetry.fold(rec);
  if (rec.rtsp_blocked_user) return;  // excluded from analysis, as in §IV
  ++accesses;
  if (!rec.available) {
    ++unavailable;
    return;
  }
  if (!rec.stats.played_any_frame) return;
  const auto& st = rec.stats;
  ++played;
  if (st.protocol == net::Protocol::kUdp) {
    ++udp_plays;
  } else {
    ++tcp_plays;
  }
  if (st.fell_back_to_tcp) ++tcp_fallbacks;
  if (st.fell_back_to_http) ++http_fallbacks;
  rtsp_retries += static_cast<std::uint64_t>(st.rtsp_retries);
  rebuffer_events += static_cast<std::uint64_t>(st.rebuffer_events);
  frames_played += static_cast<std::uint64_t>(st.frames_played);
  frames_dropped += static_cast<std::uint64_t>(st.frames_dropped);
  frames_cpu_scaled += static_cast<std::uint64_t>(st.frames_cpu_scaled);
  bytes_received += static_cast<std::uint64_t>(st.bytes_received);
  packets_received += static_cast<std::uint64_t>(st.packets_received);
  repairs_received += static_cast<std::uint64_t>(st.repairs_received);
  const double bw_kbps = to_kbps(st.measured_bandwidth);
  sum_fps_u += micro(st.measured_fps);
  sum_bw_kbps_u += micro(bw_kbps);
  sum_jitter_ms_u += micro(st.jitter_ms);
  sum_preroll_s_u += micro(st.preroll_seconds);
  sum_rebuffer_s_u += micro(st.rebuffer_seconds);
  sum_play_s_u += micro(st.play_seconds);
  h_fps.add(st.measured_fps);
  h_bw.add(bw_kbps);
  h_jitter.add(st.jitter_ms);
  h_preroll.add(st.preroll_seconds);
  if (rec.rated()) {
    ++rated;
    sum_rating_u += micro(rec.rating);
    h_rating.add(rec.rating);
  }
  by_class[std::string(world::connection_class_name(rec.connection))].fold(
      rec);
  by_region[std::string(world::user_region_group_name(rec.user_group))].fold(
      rec);
  by_server[rec.server_name].fold(rec);
}

bool CampaignRollup::merge(const CampaignRollup& other, std::string* error) {
  if (other.user_first != user_first + user_count) {
    if (error != nullptr) {
      *error = util::str_cat("shard rollups are not contiguous: have users [",
                             user_first, ", ", user_first + user_count,
                             "), next shard starts at ", other.user_first);
    }
    return false;
  }
  user_count += other.user_count;
  records += other.records;
  accesses += other.accesses;
  unavailable += other.unavailable;
  played += other.played;
  rated += other.rated;
  udp_plays += other.udp_plays;
  tcp_plays += other.tcp_plays;
  tcp_fallbacks += other.tcp_fallbacks;
  http_fallbacks += other.http_fallbacks;
  rtsp_retries += other.rtsp_retries;
  rebuffer_events += other.rebuffer_events;
  frames_played += other.frames_played;
  frames_dropped += other.frames_dropped;
  frames_cpu_scaled += other.frames_cpu_scaled;
  bytes_received += other.bytes_received;
  packets_received += other.packets_received;
  repairs_received += other.repairs_received;
  sum_fps_u += other.sum_fps_u;
  sum_bw_kbps_u += other.sum_bw_kbps_u;
  sum_jitter_ms_u += other.sum_jitter_ms_u;
  sum_preroll_s_u += other.sum_preroll_s_u;
  sum_rebuffer_s_u += other.sum_rebuffer_s_u;
  sum_play_s_u += other.sum_play_s_u;
  sum_rating_u += other.sum_rating_u;
  h_fps.merge(other.h_fps);
  h_bw.merge(other.h_bw);
  h_jitter.merge(other.h_jitter);
  h_preroll.merge(other.h_preroll);
  h_rating.merge(other.h_rating);
  const auto merge_groups = [](std::map<std::string, CampaignGroup>& into,
                               const std::map<std::string, CampaignGroup>&
                                   from) {
    for (const auto& [label, group] : from) {
      into.try_emplace(label).first->second.merge(group);
    }
  };
  merge_groups(by_class, other.by_class);
  merge_groups(by_region, other.by_region);
  merge_groups(by_server, other.by_server);
  telemetry.merge(other.telemetry);
  return true;
}

std::string CampaignRollup::render() const {
  std::string out = util::str_cat(
      "Campaign rollup: users [", user_first, ", ", user_first + user_count,
      "), ", records, " records\n");
  out += util::str_cat("  accesses ", accesses, " (unavailable ", unavailable,
                       ", ", percent_of(unavailable, accesses),
                       "%), played ", played, ", rated ", rated, "\n");
  out += util::str_cat("  transport: udp ", udp_plays, " / tcp ", tcp_plays,
                       " (fell back to tcp ", tcp_fallbacks, ", http ",
                       http_fallbacks, ")\n");
  out += util::str_cat("  frames: ", frames_played, " played, ",
                       frames_dropped, " dropped, ", frames_cpu_scaled,
                       " cpu-scaled; ", rebuffer_events, " rebuffers, ",
                       rtsp_retries, " rtsp retries\n");
  out += util::str_cat("  volume: ", bytes_received, " bytes, ",
                       packets_received, " packets, ", repairs_received,
                       " repairs\n");
  out += util::str_cat("  means: ", mean_of(sum_fps_u, played, 2), " fps, ",
                       mean_of(sum_bw_kbps_u, played, 1), " kbps, jitter ",
                       mean_of(sum_jitter_ms_u, played, 2),
                       " ms, preroll ", mean_of(sum_preroll_s_u, played, 2),
                       " s, rebuffer ", mean_of(sum_rebuffer_s_u, played, 3),
                       " s, rating ", mean_of(sum_rating_u, rated, 2), "\n");
  out += util::str_cat("  p50/p95/p99: fps ", quantile_triplet(h_fps, 1),
                       ", kbps ", quantile_triplet(h_bw, 0), ", jitter ms ",
                       quantile_triplet(h_jitter, 1), ", preroll s ",
                       quantile_triplet(h_preroll, 1), ", rating ",
                       quantile_triplet(h_rating, 1), "\n");
  out += util::str_cat("    ", pad_right("group", 18), pad_left("plays", 10),
                       pad_left("fps p50/p95/p99", 18),
                       pad_left("kbps p50/p95/p99", 18), "\n");
  append_group_table(out, "connection class", by_class);
  append_group_table(out, "user region", by_region);
  append_group_table(out, "server", by_server);
  const std::string tel = telemetry.render();
  if (!tel.empty()) {
    out += tel;
  }
  return out;
}

std::string CampaignRollup::serialize() const {
  util::ByteWriter w;
  w.u32(kRollupMagic);
  w.u32(kRollupVersion);
  rollup_fields(w, *this);
  w.u32(kRollupMagic);
  return w.take();
}

bool CampaignRollup::parse(const std::string& bytes, CampaignRollup* out,
                           std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  util::ByteReader r(bytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  r.u32(magic);
  if (magic != kRollupMagic) return fail("not a campaign rollup (bad magic)");
  r.u32(version);
  if (version != kRollupVersion) return fail("unsupported rollup version");
  CampaignRollup v;
  rollup_fields(r, v);
  std::uint32_t trailer = 0;
  r.u32(trailer);
  if (!r.ok() || trailer != kRollupMagic || r.remaining() != 0) {
    return fail("corrupt or truncated rollup");
  }
  *out = std::move(v);
  return true;
}

bool CampaignRollup::save(const std::string& path) const {
  return util::write_file(path, serialize());
}

bool CampaignRollup::load(const std::string& path, CampaignRollup* out,
                          std::string* error) {
  std::string bytes;
  if (!util::read_file(path, bytes)) {
    if (error != nullptr) *error = "cannot open rollup file: " + path;
    return false;
  }
  return parse(bytes, out, error);
}

std::uint64_t peak_rss_kb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::uint64_t>(
          std::strtoull(line.c_str() + 6, nullptr, 10));
    }
  }
  return 0;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  RV_CHECK_GE(config.plays_scale, 1u) << "plays_scale must be >= 1";
  RV_CHECK_GE(config.shard_count, 1u) << "shard_count must be >= 1";
  RV_CHECK_LT(config.shard_index, config.shard_count)
      << "shard_index must be < shard_count";
  RV_CHECK_GE(config.chunk_users, 1u) << "chunk_users must be >= 1";
  const std::uint64_t total_users =
      world::PopulationStream(config.study.population, config.plays_scale)
          .size();
  const std::uint64_t first =
      total_users * config.shard_index / config.shard_count;
  const std::uint64_t last =
      total_users * (config.shard_index + 1) / config.shard_count;
  Engine engine(config.study, config.plays_scale, first, last);

  CampaignResult res;
  res.rollup.user_first = first;
  res.rollup.user_count = last - first;
  res.users = last - first;
  res.threads = engine.threads();
  obs::metrics_gauge_set(obs::MetricGauge::kShardIndex, config.shard_index);
  obs::metrics_gauge_set(obs::MetricGauge::kShardCount, config.shard_count);
  obs::metrics_gauge_set(obs::MetricGauge::kLastFoldUser,
                         static_cast<std::int64_t>(first));

  std::unique_ptr<SpillWriter> writer;
  if (!config.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.spill_dir, ec);
    if (ec) {
      throw std::runtime_error("cannot create spill dir: " + config.spill_dir);
    }
    res.spill_path = config.spill_dir + "/records.spill";
    res.rollup_path = config.spill_dir + "/rollup.bin";
    writer = std::make_unique<SpillWriter>(res.spill_path);
    if (!writer->ok()) {
      throw std::runtime_error("cannot write spill file: " + res.spill_path);
    }
  }
  std::uint64_t spill_bytes_fed = 0, spill_frames_fed = 0;
  const auto feed_spill_metrics = [&] {
    obs::metrics_add(obs::Metric::kSpillBytesWritten,
                     writer->bytes_written() - spill_bytes_fed);
    obs::metrics_add(obs::Metric::kSpillFramesWritten,
                     writer->frames_written() - spill_frames_fed);
    spill_bytes_fed = writer->bytes_written();
    spill_frames_fed = writer->frames_written();
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t pos = first;
  engine.run(config.chunk_users, [&](auto& users, auto& records) {
    // Fold + spill in slot order: across chunks and shards that is user-id
    // order, so a merged spill is byte-identical to a single-process run.
    for (const auto& rec : records) {
      res.rollup.fold(rec);
      if (writer != nullptr) writer->append(rec);
    }
    res.plays += records.size();
    pos += users.size();
    obs::metrics_add(obs::Metric::kChunksCompleted);
    obs::metrics_gauge_set(obs::MetricGauge::kLastFoldUser,
                           static_cast<std::int64_t>(pos));
    if (writer != nullptr) feed_spill_metrics();
    if (config.progress) config.progress(res.plays, pos - first, last - first);
  });
  res.execute_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  res.profile = std::move(engine.profile);

  if (writer != nullptr) {
    if (!writer->finish()) {
      throw std::runtime_error("cannot finalize spill file: " + res.spill_path);
    }
    feed_spill_metrics();  // the footer written by finish() counts too
  }
  if (!res.rollup_path.empty() && !res.rollup.save(res.rollup_path)) {
    throw std::runtime_error("cannot write rollup file: " + res.rollup_path);
  }
  res.peak_rss_kb = peak_rss_kb();
  return res;
}

}  // namespace rv::study
