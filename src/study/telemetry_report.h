// Study-level telemetry rollups, bottleneck attribution, the anomaly flight
// recorder, series CSV export, and the worker self-profile report.
// Everything here renders from slot-ordered in-memory records, so all
// outputs are byte-identical at any worker-thread count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "stats/histogram.h"
#include "study/study.h"

namespace rv::study {

// Sketch geometries for the sample-level rollups. Fixed bins keep every
// per-play sketch mergeable with every other (stats::MergeableHistogram
// requires identical geometry) and bound memory regardless of play count.
constexpr double kTelemetryFpsLo = 0.0, kTelemetryFpsHi = 60.0;
constexpr std::size_t kTelemetryFpsBins = 120;
constexpr double kTelemetryBwLo = 0.0, kTelemetryBwHi = 2000.0;  // kbps
constexpr std::size_t kTelemetryBwBins = 200;

// One group's sample-level fps/bandwidth sketches.
struct GroupSketch {
  stats::MergeableHistogram fps{kTelemetryFpsLo, kTelemetryFpsHi,
                                kTelemetryFpsBins};
  stats::MergeableHistogram bw{kTelemetryBwLo, kTelemetryBwHi,
                               kTelemetryBwBins};
  void merge(const GroupSketch& other) {
    fps.merge(other.fps);
    bw.merge(other.bw);
  }
};

// Streaming telemetry rollup: fold() each record as its play finishes,
// merge() shard rollups, render() at the end. Everything inside is a
// counter, an ordered map, or a bin-exact MergeableHistogram, so
// fold-then-merge in any grouping reproduces the single-pass rollup
// exactly — the property the sharded campaign's byte-identity gate rests
// on. telemetry_report() is now a thin wrapper over this.
struct TelemetryRollup {
  std::uint64_t plays = 0;    // plays that carried a sampled series
  std::uint64_t samples = 0;  // total samples folded
  std::map<std::string, GroupSketch> by_class;
  std::map<std::string, GroupSketch> by_region;
  std::map<std::string, GroupSketch> by_server;
  // Bottleneck attribution: connection-class label -> play count per path
  // link (layout order, world::PlayPath::kLinkCount wide).
  std::map<std::string, std::vector<int>> bottleneck;

  // Folds one finished play. Records without an enabled, non-empty series
  // are ignored (telemetry off, or the play never started).
  void fold(const tracer::TraceRecord& rec);
  void merge(const TelemetryRollup& other);
  // Renders the rollup text; empty string when no play carried a series.
  std::string render() const;
};

// Flight-recorder anomaly predicates: a play trips when its total rebuffer
// time exceeds `rebuffer_seconds`, its transport ladder fell all the way to
// the HTTP cloak, or it played frames at under `min_fps`.
struct FlightPredicates {
  double rebuffer_seconds = 10.0;
  double min_fps = 3.0;
  bool http_cloak = true;
};

// Names of the predicates `rec` trips, in fixed order ("rebuffer",
// "http-cloak", "low-fps"). Empty for healthy (or non-analyzable) plays.
std::vector<std::string> flight_reasons(const tracer::TraceRecord& rec,
                                        const FlightPredicates& pred);

// Dumps one JSON document per anomalous play into `dir` (created if
// missing), named flight_u<user>_s<record slot>.json, slot order. Each dump
// carries the play's metadata, tripped predicates, full event ring +
// counters (when obs ran) and sampled series (when telemetry ran). Returns
// the number of files written, or -1 on any I/O failure.
int write_flight_records(const std::string& dir, const StudyResult& result,
                         const FlightPredicates& pred = {});

// Bottleneck attribution over a whole in-memory result (folds every record
// into a TelemetryRollup and returns its bottleneck table). A play is
// attributed to telemetry::bottleneck_link of its series; plays without a
// series are skipped.
std::map<std::string, std::vector<int>> bottleneck_table(
    const StudyResult& result);

// Renders the telemetry rollup: sample-level fps/bandwidth p50/p95/p99 per
// connection class, user region, and server (merged per-play
// stats::MergeableHistogram sketches), plus the bottleneck attribution
// table. Empty string when no record carries a series. Equivalent to
// folding every record into a TelemetryRollup and rendering it.
std::string telemetry_report(const StudyResult& result);

// Exports every play's series as CSV, one row per sample:
//   user_id,record_slot,clip_id,server,t_usec,buffer_sec,fps,bandwidth_kbps,
//   cwnd_bytes,retx_per_sec,pacing_kbps,cc_state,<link>_occupancy,
//   <link>_drops,...
// (the value columns are telemetry::kSeriesColumns, in table order).
// Throws (via CsvWriter) when the file cannot be opened.
void write_series_csv(const std::string& path,
                      const std::vector<tracer::TraceRecord>& records);

// Converts a play's sampled series into Chrome trace "C"-phase counter
// tracks (obs::PlayTrack::counters), link columns named via
// world::path_link_name. Empty when the series is disabled or empty.
std::vector<obs::CounterSeries> chrome_counter_series(
    const telemetry::PlaySeries& series);

// Report cell helpers shared by the telemetry and campaign renderers:
// space-padding to a column width, and "p50/p95/p99" of a sketch ("-" when
// it is empty).
std::string pad_left(const std::string& s, std::size_t width);
std::string pad_right(const std::string& s, std::size_t width);
std::string quantile_triplet(const stats::MergeableHistogram& h, int decimals);

// Renders the worker self-profile (--profile): plan/execute phase walls and
// the per-worker plays/busy/idle/max-play breakdown.
std::string profile_report(const StudyProfile& profile);

}  // namespace rv::study
