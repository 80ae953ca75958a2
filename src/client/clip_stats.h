// Per-clip playout statistics — the exact metric set RealTracer records
// (§III.A): encoded/measured bandwidth, transport protocol, encoded/measured
// frame rate, playout jitter, frames dropped and CPU utilisation, plus
// per-second samples for the Fig 1 style time series.
#pragma once

#include <cstdint>
#include <vector>

#include "net/address.h"
#include "util/units.h"

namespace rv::client {

struct SecondSample {
  double t_seconds = 0.0;           // since PLAY
  BitsPerSec bandwidth = 0.0;       // received over the last second
  double frame_rate = 0.0;          // frames played over the last second

  bool operator==(const SecondSample&) const = default;
};

struct ClipStats {
  bool session_established = false;
  bool played_any_frame = false;
  net::Protocol protocol = net::Protocol::kUdp;
  bool fell_back_to_tcp = false;
  bool fell_back_to_http = false;       // ladder reached the HTTP-cloak rung
  std::int32_t rtsp_retries = 0;        // timed-out connect/request attempts

  BitsPerSec encoded_bandwidth = 0.0;   // time-weighted active-level rate
  double encoded_fps = 0.0;             // time-weighted encoded frame rate

  BitsPerSec measured_bandwidth = 0.0;  // application goodput over the play
  double measured_fps = 0.0;            // frames played / playout wall time
  double jitter_ms = 0.0;               // stddev of inter-frame playout gaps

  std::int64_t frames_played = 0;
  std::int64_t frames_dropped = 0;      // lost/late frames skipped at deadline
  std::int64_t frames_cpu_scaled = 0;   // skipped by the CPU frame-rate scaler

  std::int32_t rebuffer_events = 0;
  double rebuffer_seconds = 0.0;
  double preroll_seconds = 0.0;         // initial buffering delay
  double play_seconds = 0.0;            // playout wall time (incl. stalls)

  double cpu_utilization = 0.0;         // decode busy / playout wall time

  std::int64_t bytes_received = 0;
  std::int64_t packets_received = 0;
  std::int64_t repairs_received = 0;

  std::vector<SecondSample> samples;    // 1 Hz time series (Fig 1)

  bool operator==(const ClipStats&) const = default;
};

}  // namespace rv::client
