// The per-play sampler: kernel-timer driven, reads probes, appends to a
// Series. See series.h for the determinism argument.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "telemetry/series.h"
#include "util/units.h"

namespace rv::telemetry {

// Cumulative/instantaneous reads the sampler takes each tick. The tracer
// wires these to the live player/server; any probe may be left empty (its
// column then reads 0). All must be pure reads of simulation state.
struct Probe {
  std::function<double()> buffer_sec;            // instantaneous
  std::function<std::int64_t()> frames_played;   // cumulative
  std::function<std::int64_t()> bytes_received;  // cumulative
  std::function<double()> cwnd_bytes;            // instantaneous
  std::function<std::uint64_t()> tcp_retransmits;  // cumulative
  std::function<double()> pacing_bps;            // instantaneous
  std::function<int()> cc_state;                 // instantaneous
  std::function<bool()> finished;  // true stops sampling (play over)
};

class PlaySampler {
 public:
  // Samples `network`'s first `link_count` links plus the probes into
  // `out` every `interval` (> 0) of sim-time, first tick one interval after
  // start(). `out` must outlive the sampler and have been reset to
  // link_count links. `network` may be null (no link columns sampled).
  PlaySampler(sim::Simulator& sim, net::Network* network,
              std::size_t link_count, Probe probe, Series* out,
              SimTime interval);
  ~PlaySampler();
  PlaySampler(const PlaySampler&) = delete;
  PlaySampler& operator=(const PlaySampler&) = delete;

  // Schedules the tick chain. Sampling stops by itself once the probe
  // reports the play finished; the destructor cancels any pending tick.
  void start();
  bool active() const { return active_; }

  // Appends one sample at `now`. start() drives this from kernel timers;
  // exposed so benches and unit tests can tick without a running kernel.
  void sample_at(SimTime now);

  // The disabled-path guard every potential sampling site costs when
  // telemetry is off: one predicted-untaken branch (gated by
  // BM_SeriesSampleDisabled via run_bench.py --obs-overhead-check).
  void sample_if_active(SimTime now) {
    if (__builtin_expect(active_, 0)) sample_at(now);
  }

 private:
  void tick();

  sim::Simulator& sim_;
  net::Network* network_;
  std::size_t link_count_;
  Probe probe_;
  Series* out_;
  SimTime interval_;
  bool active_ = false;
  sim::EventId tick_event_ = sim::kInvalidEventId;

  // Last cumulative probe reads, for per-interval deltas.
  std::int64_t last_frames_ = 0;
  std::int64_t last_bytes_ = 0;
  std::uint64_t last_retx_ = 0;
  std::vector<std::uint64_t> last_link_drops_;
};

}  // namespace rv::telemetry
