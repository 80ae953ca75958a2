// Deterministic per-play time-series telemetry (the sampling layer on top of
// the obs event/counter subsystem — see docs/OBSERVABILITY.md).
//
// A PlaySampler ticks on the play's own simulated clock at a fixed interval
// (default 500 ms sim-time) and appends one columnar sample per tick:
// playout buffer depth, instantaneous frame rate, achieved bandwidth, the
// TCP sender's cwnd and retransmission rate, and each path link's queue
// occupancy and drop count. Everything is a pure *read* of simulation state
// — the sampler draws no randomness and mutates nothing the session can
// observe — so enabling telemetry cannot change results, and because every
// timestamp is sim-time and the series lands in the play's preassigned
// TraceRecord slot, the merged output is byte-identical at any worker-thread
// count (the same argument as TraceRecord.obs; proven in telemetry_test).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace rv::telemetry {

// Carried by tracer::TracerConfig. Excluded from the study-cache config
// fingerprint for the same reason as ObsConfig: sampling is observational
// and must not change which cache file a study maps to, nor its bytes.
struct TelemetryConfig {
  bool enabled = false;
  SimTime interval = msec(500);  // sim-time between samples; must be > 0
};

// Columnar per-play series: parallel vectors, one entry per sampler tick.
// Rate columns (fps, bandwidth, retx) are deltas of cumulative probes over
// the interval ending at t[i]; gauge columns (buffer, cwnd, occupancy) are
// instantaneous reads at t[i].
struct Series {
  std::vector<SimTime> t;                // sample time (usec, sim clock)
  std::vector<double> buffer_sec;        // playout buffer depth (media s)
  std::vector<double> fps;               // frames played per second
  std::vector<double> bandwidth_kbps;    // application bytes received
  std::vector<double> cwnd_bytes;        // TCP sender cwnd (0 for UDP media)
  std::vector<double> retx_per_sec;      // TCP retransmissions per second
  std::vector<double> pacing_kbps;       // TCP sender pacing rate (0 UDP)
  std::vector<double> cc_state;          // CC backend state (BBR phase)

  struct LinkSeries {
    std::vector<double> occupancy;       // queue fill fraction, [0, 1]
    std::vector<std::uint64_t> drops;    // packets dropped this interval

    bool operator==(const LinkSeries& other) const = default;
  };
  std::vector<LinkSeries> links;         // one per path link, layout order

  std::size_t size() const { return t.size(); }
  bool empty() const { return t.empty(); }
  // Clears all columns and (re)sizes the per-link set, keeping vector
  // capacity so reused worker contexts stop allocating in steady state.
  void reset(std::size_t link_count);

  bool operator==(const Series& other) const = default;
};

// The series vocabulary: one row per double column, in export order. Flight
// dumps, the series CSV and the Chrome counter tracks name and order the
// columns by this table; the time column and the per-link columns are
// spelled by each exporter's own layout around it.
struct SeriesColumn {
  const char* name;
  std::vector<double> Series::*member;
};
inline constexpr SeriesColumn kSeriesColumns[] = {
    {"buffer_sec", &Series::buffer_sec},
    {"fps", &Series::fps},
    {"bandwidth_kbps", &Series::bandwidth_kbps},
    {"cwnd_bytes", &Series::cwnd_bytes},
    {"retx_per_sec", &Series::retx_per_sec},
    {"pacing_kbps", &Series::pacing_kbps},
    {"cc_state", &Series::cc_state},
};

// Per-link column names. Flight dumps key each link's object by them; the
// CSV and the Chrome counter tracks prefix them with the link's name.
inline constexpr const char* kLinkOccupancy = "occupancy";
inline constexpr const char* kLinkDrops = "drops";

// Snapshot carried in tracer::TraceRecord. Like PlayObs, in-memory only:
// never serialized into the study cache.
struct PlaySeries {
  bool enabled = false;
  SimTime interval = 0;
  Series data;

  bool operator==(const PlaySeries& other) const = default;
};

// Index of the path link that constrained this play: argmax over links of
// (time-averaged queue occupancy + share of the play's total drops), the
// attribution rule behind the study-level bottleneck table. Ties break to
// the lower index; -1 when the series is empty or has no links.
int bottleneck_link(const Series& series);

}  // namespace rv::telemetry
