#include "record_path.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "bench_stats.h"
#include "stats/summary.h"
#include "study/analysis.h"
#include "study/cache.h"
#include "study/campaign.h"
#include "study/figures.h"
#include "study/spill.h"
#include "util/md5.h"
#include "util/strings.h"

namespace perfbench {

namespace study = rv::study;
namespace tracer = rv::tracer;
using Clock = std::chrono::steady_clock;

namespace {

// Repetitions of the record path; each metric is the median.
constexpr int kRecordPathReps = 3;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

std::string render_figures(const study::StudyResult& r) {
  using F = std::string (*)(const study::StudyResult&);
  static constexpr F kFigures[] = {
      &study::fig05_clips_per_user,
      &study::fig06_rated_per_user,
      &study::fig07_user_countries,
      &study::fig08_server_countries,
      &study::fig09_us_states,
      &study::fig10_availability,
      &study::fig11_framerate_all,
      &study::fig12_framerate_by_net,
      &study::fig13_bandwidth_by_net,
      &study::fig14_framerate_by_server_region,
      &study::fig15_framerate_by_user_region,
      &study::fig16_protocol_mix,
      &study::fig17_framerate_by_protocol,
      &study::fig18_bandwidth_by_protocol,
      &study::fig19_framerate_by_pc,
      &study::fig20_jitter_all,
      &study::fig21_jitter_by_net,
      &study::fig22_jitter_by_server_region,
      &study::fig23_jitter_by_user_region,
      &study::fig24_jitter_by_protocol,
      &study::fig25_jitter_by_bandwidth,
      &study::fig26_quality_all,
      &study::fig27_quality_by_net,
      &study::fig28_quality_vs_bandwidth,
  };
  std::string out;
  for (F f : kFigures) out += f(r);
  out += study::study_summary(r);
  const study::Records played = r.played();
  for (const auto& groups :
       {study::by_connection(played), study::by_protocol(played),
        study::by_server_group(played), study::by_user_group(played)}) {
    for (const auto& [label, records] : groups) {
      for (const auto& values :
           {study::frame_rates(records), study::jitters_ms(records),
            study::bandwidths_kbps(records)}) {
        if (values.empty()) continue;
        rv::stats::Summary s;
        s.add_all(values);
        out += rv::util::str_cat(
            label, " n=", values.size(), " mean ",
            rv::util::format_double(s.mean(), 3), " p50 ",
            rv::util::format_double(rv::stats::quantile(values, 0.5), 3),
            " max ", rv::util::format_double(s.max(), 3), "\n");
      }
    }
  }
  return out;
}

std::string record_key(const tracer::TraceRecord& r) {
  return rv::util::str_cat(r.user_id, "/", r.clip_id, "/", r.site, "/",
                           r.available ? 1 : 0, "/", r.stats.frames_played,
                           "/", r.stats.bytes_received, "/",
                           rv::util::format_double(r.stats.jitter_ms, 9), "/",
                           rv::util::format_double(r.rating, 9));
}

RecordPathTimes measure_record_path(const study::StudyConfig& cfg,
                                    const study::StudyResult& result,
                                    const std::string& dir, Checker& checks) {
  const std::string cache_path = dir + "/record-path.cache";
  const std::string spill_path = dir + "/record-path.spill";
  const std::vector<tracer::TraceRecord>& records = result.records;
  if (records.empty() || result.users.empty()) {
    throw std::runtime_error("record path: no records to measure");
  }
  const double n = static_cast<double>(records.size());
  const std::string want_figures = rv::util::md5_hex(render_figures(result));
  // The users form one contiguous id range; the merge splits it in half.
  const auto [lo, hi] = std::minmax_element(
      result.users.begin(), result.users.end(),
      [](const auto& a, const auto& b) { return a.id < b.id; });
  const auto first = static_cast<std::uint64_t>(lo->id);
  const std::uint64_t count = static_cast<std::uint64_t>(hi->id) - first + 1;
  const std::uint64_t split = first + count / 2;

  std::vector<double> save_s, load_s, figures_ms, encode_ns, decode_ns,
      fold_ns, merge_ms;
  double bytes = 0.0;
  for (int rep = 0; rep < kRecordPathReps; ++rep) {
    remove_output(cache_path);
    auto t = Clock::now();
    if (!study::save_result(cache_path, cfg, result)) {
      throw std::runtime_error("cannot write " + cache_path);
    }
    save_s.push_back(seconds_since(t));
    t = Clock::now();
    const std::optional<study::StudyResult> loaded =
        study::load_result(cache_path, cfg);
    load_s.push_back(seconds_since(t));
    if (!loaded) throw std::runtime_error("load_result failed: " + cache_path);
    t = Clock::now();
    const std::string figures = render_figures(*loaded);
    figures_ms.push_back(ms_since(t));
    checks.expect("record path: loaded cache renders like the records",
                  rv::util::md5_hex(figures), want_figures);

    remove_output(spill_path);
    t = Clock::now();
    {
      study::SpillWriter writer(spill_path);
      for (const auto& rec : records) writer.append(rec);
      if (!writer.finish()) throw std::runtime_error("cannot write spill");
      bytes = static_cast<double>(writer.bytes_written());
    }
    encode_ns.push_back(seconds_since(t) * 1e9 / n);
    study::SpillReader reader;
    if (!reader.open(spill_path)) throw std::runtime_error(reader.error());
    std::vector<tracer::TraceRecord> frame;
    std::size_t next = 0, mismatches = 0;
    double decode_s = 0.0;
    for (std::size_t f = 0; f < reader.frames(); ++f) {
      t = Clock::now();
      if (!reader.read_frame(f, frame)) {
        throw std::runtime_error("spill frame decode failed");
      }
      decode_s += seconds_since(t);
      for (const auto& rec : frame) {
        if (next >= records.size() ||
            record_key(rec) != record_key(records[next])) {
          ++mismatches;
        }
        ++next;
      }
    }
    decode_ns.push_back(decode_s * 1e9 / n);
    checks.expect("record path: spill decodes to the same records",
                  std::to_string(mismatches) + " mismatches, " +
                      std::to_string(next) + " records",
                  "0 mismatches, " + std::to_string(records.size()) +
                      " records");

    study::CampaignRollup whole, lower, upper;
    whole.user_first = lower.user_first = first;
    whole.user_count = count;
    lower.user_count = split - first;
    upper.user_first = split;
    upper.user_count = first + count - split;
    t = Clock::now();
    for (const auto& rec : records) whole.fold(rec);
    fold_ns.push_back(seconds_since(t) * 1e9 / n);
    for (const auto& rec : records) {
      (static_cast<std::uint64_t>(rec.user_id) < split ? lower : upper)
          .fold(rec);
    }
    std::string error;
    t = Clock::now();
    if (!lower.merge(upper, &error)) {
      throw std::runtime_error("rollup merge: " + error);
    }
    merge_ms.push_back(ms_since(t));
    checks.expect("record path: merged rollups render like one",
                  rv::util::md5_hex(lower.render()),
                  rv::util::md5_hex(whole.render()));
  }
  remove_output(cache_path);
  remove_output(spill_path);

  RecordPathTimes out;
  out.cache_save_s = median(save_s);
  out.cache_load_s = median(load_s);
  out.figures_ms = median(figures_ms);
  out.spill_encode_ns_per_record = median(encode_ns);
  out.spill_decode_ns_per_record = median(decode_ns);
  out.spill_bytes_per_record = bytes / n;
  out.fold_ns_per_record = median(fold_ns);
  out.rollup_merge_ms = median(merge_ms);
  return out;
}

}  // namespace perfbench
