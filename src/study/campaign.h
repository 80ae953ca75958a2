// Campaign driver: runs the study at population scales the in-memory
// StudyResult cannot hold (1e3–1e6 × the paper's 2855 plays) in bounded
// memory, optionally as one shard of a multi-process run.
//
// Three coordinated pieces:
//   - PopulationStream (src/world) synthesizes the scaled population off the
//     paper's fitted distributions; a shard is a contiguous user-id range,
//     generable independently yet byte-reproducible.
//   - run_campaign streams its users through the plan/execute engine
//     (study/engine.h) `chunk_users` profiles at a time — the same engine
//     run_study runs as one chunk — folds every finished record into a
//     CampaignRollup, optionally appends it to a columnar spill
//     (study/spill.h), and discards it. Peak RSS is set by the chunk working
//     set, not the play count.
//   - CampaignRollup is pure mergeable state: u64/i64 counters, fixed-point
//     (micro-unit) sums, bin-exact stats::MergeableHistograms and ordered
//     group tables. merge() of N contiguous shard rollups reproduces the
//     single-process rollup exactly — render() output and serialized bytes
//     included — which is what the shard-merge CI gate pins.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "stats/histogram.h"
#include "study/study.h"
#include "study/telemetry_report.h"

namespace rv::study {

// Rollup histogram geometries (fixed so every shard's sketches merge).
constexpr double kCampaignJitterLoMs = 0.0, kCampaignJitterHiMs = 200.0;
constexpr std::size_t kCampaignJitterBins = 200;
constexpr double kCampaignRatingLo = 0.0, kCampaignRatingHi = 10.0;
constexpr std::size_t kCampaignRatingBins = 100;
constexpr double kCampaignPrerollLoS = 0.0, kCampaignPrerollHiS = 30.0;
constexpr std::size_t kCampaignPrerollBins = 120;

struct CampaignConfig {
  StudyConfig study;
  // Population replicas: the campaign runs plays_scale copies of the
  // paper's 63-user population (~2855 plays each), so 1M plays ≈ scale 350.
  std::uint64_t plays_scale = 1;
  // This process's shard of the user-id space ([index*U/N, (index+1)*U/N)).
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  // When non-empty, raw records spill to <spill_dir>/records.spill and the
  // rollup is saved to <spill_dir>/rollup.bin (directory created if needed).
  std::string spill_dir;
  // Users materialized per chunk — the bounded working set.
  std::uint64_t chunk_users = 63;
  // Progress hook, called after each chunk (plays folded so far, users done,
  // users in this shard). Null = silent.
  std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)> progress;
};

// Per-group mergeable aggregate over finished plays (ClipStats level, not
// telemetry samples): analyzable-play count plus measured fps/bandwidth
// sketches.
struct CampaignGroup {
  std::uint64_t plays = 0;
  stats::MergeableHistogram fps{kTelemetryFpsLo, kTelemetryFpsHi,
                                kTelemetryFpsBins};
  stats::MergeableHistogram bw{kTelemetryBwLo, kTelemetryBwHi,
                               kTelemetryBwBins};
  void fold(const tracer::TraceRecord& rec);
  void merge(const CampaignGroup& other);
};

struct CampaignRollup {
  // Shard coverage (user-id range). merge() requires `other` to start
  // exactly where this rollup ends, so a merged rollup always describes one
  // contiguous range and N-shard merges cannot silently drop or reorder a
  // shard.
  std::uint64_t user_first = 0;
  std::uint64_t user_count = 0;

  // Record counters.
  std::uint64_t records = 0;        // every folded record
  std::uint64_t accesses = 0;       // non-firewalled users' records
  std::uint64_t unavailable = 0;    // accesses that found the clip down
  std::uint64_t played = 0;         // analyzable plays
  std::uint64_t rated = 0;          // analyzable + rated
  std::uint64_t udp_plays = 0;      // analyzable, by final transport
  std::uint64_t tcp_plays = 0;
  std::uint64_t tcp_fallbacks = 0;  // UDP → TCP ladder steps
  std::uint64_t http_fallbacks = 0;

  // Exact event/frame/byte totals over analyzable plays.
  std::uint64_t rtsp_retries = 0;
  std::uint64_t rebuffer_events = 0;
  std::uint64_t frames_played = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_cpu_scaled = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t repairs_received = 0;

  // Fixed-point micro-unit sums over analyzable plays (llround(v * 1e6)):
  // integer adds are associative, so shard merges reproduce single-process
  // means to the last bit — double accumulators would not.
  std::int64_t sum_fps_u = 0;
  std::int64_t sum_bw_kbps_u = 0;
  std::int64_t sum_jitter_ms_u = 0;
  std::int64_t sum_preroll_s_u = 0;
  std::int64_t sum_rebuffer_s_u = 0;
  std::int64_t sum_play_s_u = 0;
  std::int64_t sum_rating_u = 0;  // over rated plays only

  // Distribution sketches over analyzable plays.
  stats::MergeableHistogram h_fps{kTelemetryFpsLo, kTelemetryFpsHi,
                                  kTelemetryFpsBins};
  stats::MergeableHistogram h_bw{kTelemetryBwLo, kTelemetryBwHi,
                                 kTelemetryBwBins};
  stats::MergeableHistogram h_jitter{kCampaignJitterLoMs, kCampaignJitterHiMs,
                                     kCampaignJitterBins};
  stats::MergeableHistogram h_preroll{kCampaignPrerollLoS, kCampaignPrerollHiS,
                                      kCampaignPrerollBins};
  stats::MergeableHistogram h_rating{kCampaignRatingLo, kCampaignRatingHi,
                                     kCampaignRatingBins};

  // Group tables (ordered maps: canonical render/serialize order).
  std::map<std::string, CampaignGroup> by_class;
  std::map<std::string, CampaignGroup> by_region;
  std::map<std::string, CampaignGroup> by_server;

  // Sample-level telemetry rollup (empty unless the study ran telemetry).
  TelemetryRollup telemetry;

  void fold(const tracer::TraceRecord& rec);
  // Merges a contiguous successor shard (other.user_first must equal
  // user_first + user_count). Returns false with *error set otherwise.
  bool merge(const CampaignRollup& other, std::string* error);

  // Human-readable campaign report. Deterministic in the rollup values, so
  // merged == single-process byte-for-byte.
  std::string render() const;

  // Binary serialization ("RVRU"). parse() rejects bad magic/version,
  // truncated or trailing bytes, and sketches whose geometry differs from
  // the compiled-in one. save/load wrap them with file I/O.
  std::string serialize() const;
  static bool parse(const std::string& bytes, CampaignRollup* out,
                    std::string* error);
  bool save(const std::string& path) const;
  static bool load(const std::string& path, CampaignRollup* out,
                   std::string* error);
};

struct CampaignResult {
  CampaignRollup rollup;
  std::uint64_t users = 0;         // users this shard ran
  std::uint64_t plays = 0;         // records folded (== rollup.records)
  int threads = 1;                 // resolved worker count
  double execute_seconds = 0.0;    // wall time of the chunk loop
  StudyProfile profile;            // filled when study.profile is set
  std::uint64_t peak_rss_kb = 0;   // VmHWM at completion (0 if unreadable)
  std::string spill_path;          // set when spill_dir was given
  std::string rollup_path;
};

// Runs one shard of the campaign (the whole campaign when shard_count == 1).
// Deterministic in the config; thread count and chunk size never change the
// rollup or the spilled bytes. Throws util::CheckError on invalid config,
// std::runtime_error on I/O failure.
CampaignResult run_campaign(const CampaignConfig& config);

// Peak resident set (VmHWM) of this process in KiB, from
// /proc/self/status; 0 when unavailable.
std::uint64_t peak_rss_kb();

}  // namespace rv::study
