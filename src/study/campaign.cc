#include "study/campaign.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "study/engine.h"
#include "study/spill.h"
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

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_histogram(std::string& out, const stats::MergeableHistogram& h) {
  put_f64(out, h.lo());
  put_f64(out, h.hi());
  put_u32(out, static_cast<std::uint32_t>(h.bins()));
  std::uint32_t nonzero = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    if (h.bin_count(b) != 0) ++nonzero;
  }
  put_u32(out, nonzero);
  for (std::size_t b = 0; b < h.bins(); ++b) {
    if (h.bin_count(b) == 0) continue;
    put_u32(out, static_cast<std::uint32_t>(b));
    put_u64(out, h.bin_count(b));
  }
}

// Bounds-checked parse cursor.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : p_(bytes.data()), end_(p_ + bytes.size()) {}

  bool ok() const { return ok_; }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    take(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    take(&v, 8);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok_ || static_cast<std::size_t>(end_ - p_) < n) {
      ok_ = false;
      return {};
    }
    std::string s(p_, n);
    p_ += n;
    return s;
  }

 private:
  void take(void* out, std::size_t n) {
    if (!ok_ || static_cast<std::size_t>(end_ - p_) < n) {
      ok_ = false;
      return;
    }
    std::memcpy(out, p_, n);
    p_ += n;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

bool read_histogram(Reader& r, stats::MergeableHistogram* out) {
  const double lo = r.f64();
  const double hi = r.f64();
  const std::uint32_t bins = r.u32();
  const std::uint32_t nonzero = r.u32();
  if (!r.ok() || bins == 0 || bins > (1u << 20) || nonzero > bins ||
      !(lo < hi)) {
    return false;
  }
  stats::MergeableHistogram h(lo, hi, bins);
  for (std::uint32_t i = 0; i < nonzero; ++i) {
    const std::uint32_t bin = r.u32();
    const std::uint64_t weight = r.u64();
    if (!r.ok() || bin >= bins) return false;
    h.add_bin(bin, weight);
  }
  *out = h;
  return true;
}

void put_sketch_map(std::string& out,
                    const std::map<std::string, GroupSketch>& m) {
  put_u32(out, static_cast<std::uint32_t>(m.size()));
  for (const auto& [label, sketch] : m) {
    put_string(out, label);
    put_histogram(out, sketch.fps);
    put_histogram(out, sketch.bw);
  }
}

bool read_sketch_map(Reader& r, std::map<std::string, GroupSketch>* out) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > (1u << 20)) return false;
  out->clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string label = r.str();
    GroupSketch sketch;
    if (!r.ok() || !read_histogram(r, &sketch.fps) ||
        !read_histogram(r, &sketch.bw)) {
      return false;
    }
    out->emplace(std::move(label), std::move(sketch));
  }
  return true;
}

void put_group_map(std::string& out,
                   const std::map<std::string, CampaignGroup>& m) {
  put_u32(out, static_cast<std::uint32_t>(m.size()));
  for (const auto& [label, group] : m) {
    put_string(out, label);
    put_u64(out, group.plays);
    put_histogram(out, group.fps);
    put_histogram(out, group.bw);
  }
}

bool read_group_map(Reader& r, std::map<std::string, CampaignGroup>* out) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > (1u << 20)) return false;
  out->clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string label = r.str();
    CampaignGroup group;
    group.plays = r.u64();
    if (!r.ok() || !read_histogram(r, &group.fps) ||
        !read_histogram(r, &group.bw)) {
      return false;
    }
    out->emplace(std::move(label), std::move(group));
  }
  return true;
}

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
  std::string out;
  put_u32(out, kRollupMagic);
  put_u32(out, kRollupVersion);
  put_u64(out, user_first);
  put_u64(out, user_count);
  put_u64(out, records);
  put_u64(out, accesses);
  put_u64(out, unavailable);
  put_u64(out, played);
  put_u64(out, rated);
  put_u64(out, udp_plays);
  put_u64(out, tcp_plays);
  put_u64(out, tcp_fallbacks);
  put_u64(out, http_fallbacks);
  put_u64(out, rtsp_retries);
  put_u64(out, rebuffer_events);
  put_u64(out, frames_played);
  put_u64(out, frames_dropped);
  put_u64(out, frames_cpu_scaled);
  put_u64(out, bytes_received);
  put_u64(out, packets_received);
  put_u64(out, repairs_received);
  put_i64(out, sum_fps_u);
  put_i64(out, sum_bw_kbps_u);
  put_i64(out, sum_jitter_ms_u);
  put_i64(out, sum_preroll_s_u);
  put_i64(out, sum_rebuffer_s_u);
  put_i64(out, sum_play_s_u);
  put_i64(out, sum_rating_u);
  put_histogram(out, h_fps);
  put_histogram(out, h_bw);
  put_histogram(out, h_jitter);
  put_histogram(out, h_preroll);
  put_histogram(out, h_rating);
  put_group_map(out, by_class);
  put_group_map(out, by_region);
  put_group_map(out, by_server);
  put_u64(out, telemetry.plays);
  put_u64(out, telemetry.samples);
  put_sketch_map(out, telemetry.by_class);
  put_sketch_map(out, telemetry.by_region);
  put_sketch_map(out, telemetry.by_server);
  put_u32(out, static_cast<std::uint32_t>(telemetry.bottleneck.size()));
  for (const auto& [label, row] : telemetry.bottleneck) {
    put_string(out, label);
    put_u32(out, static_cast<std::uint32_t>(row.size()));
    for (const int n : row) put_i64(out, n);
  }
  put_u32(out, kRollupMagic);
  return out;
}

bool CampaignRollup::parse(const std::string& bytes, CampaignRollup* out,
                           std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  Reader r(bytes);
  if (r.u32() != kRollupMagic) return fail("not a campaign rollup (bad magic)");
  if (r.u32() != kRollupVersion) return fail("unsupported rollup version");
  CampaignRollup v;
  v.user_first = r.u64();
  v.user_count = r.u64();
  v.records = r.u64();
  v.accesses = r.u64();
  v.unavailable = r.u64();
  v.played = r.u64();
  v.rated = r.u64();
  v.udp_plays = r.u64();
  v.tcp_plays = r.u64();
  v.tcp_fallbacks = r.u64();
  v.http_fallbacks = r.u64();
  v.rtsp_retries = r.u64();
  v.rebuffer_events = r.u64();
  v.frames_played = r.u64();
  v.frames_dropped = r.u64();
  v.frames_cpu_scaled = r.u64();
  v.bytes_received = r.u64();
  v.packets_received = r.u64();
  v.repairs_received = r.u64();
  v.sum_fps_u = r.i64();
  v.sum_bw_kbps_u = r.i64();
  v.sum_jitter_ms_u = r.i64();
  v.sum_preroll_s_u = r.i64();
  v.sum_rebuffer_s_u = r.i64();
  v.sum_play_s_u = r.i64();
  v.sum_rating_u = r.i64();
  if (!r.ok()) return fail("truncated rollup header");
  if (!read_histogram(r, &v.h_fps) || !read_histogram(r, &v.h_bw) ||
      !read_histogram(r, &v.h_jitter) || !read_histogram(r, &v.h_preroll) ||
      !read_histogram(r, &v.h_rating)) {
    return fail("corrupt rollup histogram");
  }
  if (!read_group_map(r, &v.by_class) || !read_group_map(r, &v.by_region) ||
      !read_group_map(r, &v.by_server)) {
    return fail("corrupt rollup group table");
  }
  v.telemetry.plays = r.u64();
  v.telemetry.samples = r.u64();
  if (!r.ok() || !read_sketch_map(r, &v.telemetry.by_class) ||
      !read_sketch_map(r, &v.telemetry.by_region) ||
      !read_sketch_map(r, &v.telemetry.by_server)) {
    return fail("corrupt rollup telemetry section");
  }
  const std::uint32_t n_rows = r.u32();
  if (!r.ok() || n_rows > (1u << 20)) {
    return fail("corrupt rollup bottleneck table");
  }
  for (std::uint32_t i = 0; i < n_rows; ++i) {
    std::string label = r.str();
    const std::uint32_t len = r.u32();
    if (!r.ok() || len > (1u << 10)) {
      return fail("corrupt rollup bottleneck table");
    }
    std::vector<int> row(len);
    for (auto& n : row) n = static_cast<int>(r.i64());
    v.telemetry.bottleneck.emplace(std::move(label), std::move(row));
  }
  if (!r.ok() || r.u32() != kRollupMagic) {
    return fail("corrupt rollup trailer");
  }
  *out = std::move(v);
  return true;
}

bool CampaignRollup::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.good()) return false;
  const std::string bytes = serialize();
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  return os.good();
}

bool CampaignRollup::load(const std::string& path, CampaignRollup* out,
                          std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    if (error != nullptr) *error = "cannot open rollup file: " + path;
    return false;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse(buf.str(), out, error);
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
