// Process-wide, wall-clock-side metrics for long-running campaign/study
// execution — strictly OUTSIDE the deterministic simulation.
//
// The per-play tracing in obs/trace.h answers "what happened inside this
// simulated play"; this registry answers "how is the *process* doing right
// now": plays folded, users done, spill bytes written, cache hits, RSS.
// Values are sampled by the embedded HTTP exporter (obs/http_exporter.h),
// the upgraded stderr progress line, and the shard heartbeat files
// (obs/heartbeat.h) — all from the SAME registry snapshot, so there is one
// source of truth for rate and ETA.
//
// Determinism: nothing here ever feeds back into simulation state or the
// RNG tree. Hook sites live only on the wall-clock side (campaign chunk
// loop, study cache, tools); with no registry installed a hook is one
// relaxed atomic load and a predicted-untaken branch (gated <2% combined
// with the tracing hooks by run_bench.py --obs-overhead-check, see
// BM_MetricsDisabled). The committed study cache md5 is byte-identical with
// the exporter on or off.
//
// Concurrency: counters and gauges are relaxed atomics (lock-free adds from
// any thread); histograms take a tiny per-histogram mutex on observe() and
// encode(). The exporter thread only ever reads.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "stats/histogram.h"

namespace rv::obs {

// Monotonic process counters. Prometheus names end in _total by convention.
enum class Metric : std::uint16_t {
  kPlaysCompleted = 0,     // records folded / plays finished
  kUsersCompleted = 1,     // users fully executed
  kChunksCompleted = 2,    // campaign chunks folded
  kSpillBytesWritten = 3,  // bytes appended to the columnar spill
  kSpillFramesWritten = 4, // spill frames (extents) flushed
  kCacheHits = 5,          // study cache satisfied a run
  kCacheMisses = 6,        // study cache missed; study re-ran
  kHeartbeatsWritten = 7,  // shard heartbeat files atomically renamed
  kHttpRequests = 8,       // requests served by the status exporter

  kCount = 9,
};

// Instantaneous gauges (last write wins).
enum class MetricGauge : std::uint16_t {
  kUsersPlanned = 0,   // users this shard will run (ETA denominator)
  kShardIndex = 1,
  kShardCount = 2,
  kWorkers = 3,        // resolved worker-thread count
  kRssKb = 4,          // current resident set, KiB
  kLastFoldUser = 5,   // absolute user id the fold position has reached

  kCount = 6,
};

// Fixed-geometry distribution sketches (reusing stats::MergeableHistogram
// for quantiles). Geometry is fixed per slot so encoders and tests agree.
enum class MetricHist : std::uint16_t {
  kPlayFps = 0,            // measured fps per analyzable play
  kPlayBandwidthKbps = 1,  // measured bandwidth per analyzable play

  kCount = 2,
};

// The /metrics vocabulary: one row per enum value, in enum order.
// encode_prometheus prints each family's name and HELP text from these
// tables, and the registry sizes each histogram from its row.
struct MetricInfo {
  const char* name;
  const char* help;
};
inline constexpr MetricInfo kMetricInfo[] = {
    {"rv_plays_completed_total",
     "Simulated plays finished and folded into the rollup"},
    {"rv_users_completed_total", "Users fully executed"},
    {"rv_chunks_completed_total", "Campaign chunks folded"},
    {"rv_spill_bytes_written_total",
     "Bytes appended to the columnar record spill"},
    {"rv_spill_frames_written_total", "Spill frames (extents) flushed to disk"},
    {"rv_study_cache_hits_total", "Study cache hits"},
    {"rv_study_cache_misses_total", "Study cache misses (study re-ran)"},
    {"rv_heartbeats_written_total",
     "Shard heartbeat files atomically renamed into place"},
    {"rv_status_http_requests_total",
     "HTTP requests served by the embedded status exporter"},
};
static_assert(std::size(kMetricInfo) ==
              static_cast<std::size_t>(Metric::kCount));

inline constexpr MetricInfo kGaugeInfo[] = {
    {"rv_users_planned", "Users this process will execute (ETA denominator)"},
    {"rv_shard_index", "This process's shard index"},
    {"rv_shard_count", "Total shards in the campaign"},
    {"rv_worker_threads", "Resolved worker-thread count"},
    {"rv_resident_memory_kilobytes", "Resident set size in KiB"},
    {"rv_last_fold_user", "Absolute user id the fold position has reached"},
};
static_assert(std::size(kGaugeInfo) ==
              static_cast<std::size_t>(MetricGauge::kCount));

// A histogram's fixed geometry (lo, hi, bins) is part of its row, so the
// registry and every reader of its buckets agree on it.
struct MetricHistInfo {
  const char* name;
  const char* help;
  double lo;
  double hi;
  std::size_t bins;
};
inline constexpr MetricHistInfo kHistInfo[] = {
    {"rv_play_fps", "Measured frame rate per analyzable play", 0.0, 40.0, 80},
    {"rv_play_bandwidth_kbps", "Measured bandwidth per analyzable play (Kbps)",
     0.0, 2000.0, 200},
};
static_assert(std::size(kHistInfo) ==
              static_cast<std::size_t>(MetricHist::kCount));

// Prometheus text-exposition escaping. Label values escape backslash,
// double-quote and newline; HELP text escapes backslash and newline
// (exposition format v0.0.4).
std::string prom_escape_label(std::string_view s);
std::string prom_escape_help(std::string_view s);

class MetricsRegistry {
 public:
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Counters (monotonic adds; lock-free).
  void add(Metric m, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(m)].fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value(Metric m) const {
    return counters_[static_cast<std::size_t>(m)].load(
        std::memory_order_relaxed);
  }

  // Gauges (lock-free set/read).
  void set(MetricGauge g, std::int64_t v) {
    gauges_[static_cast<std::size_t>(g)].store(v, std::memory_order_relaxed);
  }
  std::int64_t gauge(MetricGauge g) const {
    return gauges_[static_cast<std::size_t>(g)].load(
        std::memory_order_relaxed);
  }

  // Histograms (per-slot mutex; observe is cheap, encode snapshots).
  void observe(MetricHist h, double value);
  std::uint64_t hist_count(MetricHist h) const;
  double hist_quantile(MetricHist h, double q) const;

  // One optional label pair stamped on every exported series (e.g.
  // shard="3"). Thread-safe; set once at startup in practice.
  void set_common_label(std::string name, std::string value);

  // Wall-clock seconds since construction — the rate/ETA clock. Monotonic
  // (std::chrono::steady_clock), never the sim clock.
  double elapsed_seconds() const;

  // Prometheus text exposition (v0.0.4): HELP/TYPE per family, counters,
  // gauges, then histograms with cumulative le-buckets, _sum and _count.
  std::string encode_prometheus() const;

 private:
  struct Hist {
    mutable std::mutex mu;
    stats::MergeableHistogram h;
    double sum = 0.0;
    explicit Hist(const MetricHistInfo& info)
        : h(info.lo, info.hi, info.bins) {}
  };
  using Hists = std::array<Hist, static_cast<std::size_t>(MetricHist::kCount)>;
  // One Hist per kHistInfo row, built in place (Hist holds a mutex).
  template <std::size_t... I>
  static Hists make_hists(std::index_sequence<I...>) {
    return {Hist(kHistInfo[I])...};
  }

  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(Metric::kCount)>
      counters_{};
  std::array<std::atomic<std::int64_t>,
             static_cast<std::size_t>(MetricGauge::kCount)>
      gauges_{};
  Hists hists_;
  mutable std::mutex label_mu_;
  std::string label_name_;
  std::string label_value_;
  std::chrono::steady_clock::time_point start_;
};

// One coherent progress view derived from a registry — the single source of
// truth behind /progress, the stderr progress line and the heartbeat files.
struct ProgressSnapshot {
  std::uint64_t plays = 0;
  std::uint64_t users_done = 0;
  std::uint64_t users_total = 0;
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  double elapsed_seconds = 0.0;
  double plays_per_sec = 0.0;
  double users_per_sec = 0.0;
  // Seconds until users_done reaches users_total at the current user rate;
  // negative when unknown (no progress yet or no planned total).
  double eta_seconds = -1.0;
  std::int64_t rss_kb = 0;
  bool done = false;
};

ProgressSnapshot snapshot_progress(const MetricsRegistry& registry);

// The /progress payload. eta_seconds renders as null while unknown.
std::string progress_json(const ProgressSnapshot& s);

// Process-global install point for the cheap hook sites below. Passing
// nullptr uninstalls. Not reference-counted: the caller keeps the registry
// alive for the duration (tools own it in main()).
void install_metrics(MetricsRegistry* registry);
MetricsRegistry* installed_metrics();

namespace detail {
extern std::atomic<MetricsRegistry*> g_metrics;
}  // namespace detail

// Hook sites: with no registry installed, one relaxed load and a
// predicted-untaken branch (benched by BM_MetricsDisabled, gated alongside
// the obs/telemetry hooks in run_bench.py --obs-overhead-check).
inline void metrics_add(Metric m, std::uint64_t n = 1) {
  MetricsRegistry* r = detail::g_metrics.load(std::memory_order_relaxed);
  if (__builtin_expect(r != nullptr, 0)) r->add(m, n);
}

inline void metrics_gauge_set(MetricGauge g, std::int64_t v) {
  MetricsRegistry* r = detail::g_metrics.load(std::memory_order_relaxed);
  if (__builtin_expect(r != nullptr, 0)) r->set(g, v);
}

inline void metrics_observe(MetricHist h, double value) {
  MetricsRegistry* r = detail::g_metrics.load(std::memory_order_relaxed);
  if (__builtin_expect(r != nullptr, 0)) r->observe(h, value);
}

// Current (not peak) resident set in KiB from /proc/self/status VmRSS;
// 0 when unavailable.
std::int64_t current_rss_kb();

}  // namespace rv::obs
