// Synthetic inputs shared by the on-disk format tests (spill, study cache,
// campaign rollup): deterministic records, users and file helpers, no
// simulation.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tracer/record.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "world/users.h"

namespace rv::study {

// A temp file private to the running test: ctest runs each test as its own
// process, in parallel.
inline std::string temp_path(const std::string& name) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

inline std::string read_file(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(util::read_file(path, bytes)) << path;
  return bytes;
}

// A synthetic record stream exercising every column: varied symbols from a
// small vocabulary, negative/large integers, doubles, flags, and samples.
inline tracer::TraceRecord make_record(std::uint64_t i, util::Rng& rng) {
  static const char* kCountries[] = {"US", "UK", "Germany", "Japan", "Brazil"};
  static const char* kStates[] = {"", "CA", "MA", "WA", "TX"};
  static const char* kPcs[] = {"Pentium II / 128-256", "Pentium III / 256+",
                               "486 / <64"};
  static const char* kServers[] = {"east-1", "west-1", "eu-1"};
  tracer::TraceRecord rec;
  rec.user_id = static_cast<int>(i % 63);
  rec.country = kCountries[i % 5];
  rec.us_state = kStates[i % 5];
  rec.user_group = static_cast<world::UserRegionGroup>(i % 4);
  rec.connection = static_cast<world::ConnectionClass>(i % 3);
  rec.pc_class = kPcs[i % 3];
  rec.rtsp_blocked_user = (i % 17) == 0;
  rec.clip_id = static_cast<std::uint32_t>(i * 7 % 98);
  rec.site = i % 3;
  rec.server_name = kServers[i % 3];
  rec.server_country = (i % 3 == 2) ? "UK" : "US";
  rec.available = (i % 11) != 0;
  rec.stats.session_established = rec.available;
  rec.stats.played_any_frame = rec.available;
  rec.stats.protocol = (i % 4 == 0) ? net::Protocol::kTcp : net::Protocol::kUdp;
  rec.stats.fell_back_to_tcp = (i % 8) == 0;
  rec.stats.fell_back_to_http = (i % 32) == 0;
  rec.stats.rtsp_retries = static_cast<std::int32_t>(i % 4);
  rec.stats.encoded_bandwidth = rng.uniform(20e3, 600e3);
  rec.stats.encoded_fps = rng.uniform(5.0, 30.0);
  rec.stats.measured_bandwidth = rng.uniform(10e3, 500e3);
  rec.stats.measured_fps = rng.uniform(1.0, 30.0);
  rec.stats.jitter_ms = rng.uniform(0.0, 150.0);
  rec.stats.frames_played = static_cast<std::int64_t>(i * 37 % 5000);
  rec.stats.frames_dropped = static_cast<std::int64_t>(i % 97);
  rec.stats.frames_cpu_scaled = static_cast<std::int64_t>(i % 13);
  rec.stats.rebuffer_events = static_cast<std::int32_t>(i % 5);
  rec.stats.rebuffer_seconds = rng.uniform(0.0, 20.0);
  rec.stats.preroll_seconds = rng.uniform(0.5, 12.0);
  rec.stats.play_seconds = rng.uniform(1.0, 60.0);
  rec.stats.cpu_utilization = rng.uniform(0.0, 1.0);
  rec.stats.bytes_received = static_cast<std::int64_t>(i * 104729);
  rec.stats.packets_received = static_cast<std::int64_t>(i * 331);
  rec.stats.repairs_received = static_cast<std::int64_t>(i % 29);
  const int n_samples = static_cast<int>(i % 4);
  for (int s = 0; s < n_samples; ++s) {
    client::SecondSample sample;
    sample.t_seconds = static_cast<double>(s);
    sample.bandwidth = rng.uniform(1e4, 5e5);
    sample.frame_rate = rng.uniform(0.0, 30.0);
    rec.stats.samples.push_back(sample);
  }
  rec.rating = (i % 6 == 0) ? rng.uniform(0.0, 10.0) : -1.0;
  return rec;
}

inline std::vector<tracer::TraceRecord> make_records(std::size_t n,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<tracer::TraceRecord> recs;
  recs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) recs.push_back(make_record(i, rng));
  return recs;
}

// A user profile touching every cached field, including every enum range.
inline world::UserProfile make_user(int i) {
  world::UserProfile u;
  u.id = i;
  u.country = (i % 2 == 0) ? "US" : "Japan";
  u.us_state = (i % 2 == 0) ? "CA" : "";
  u.region = static_cast<world::Region>(i % world::kRegionCount);
  u.group = static_cast<world::UserRegionGroup>(i % 4);
  u.connection = static_cast<world::ConnectionClass>(i % 3);
  u.pc_class = "Pentium III / 256+";
  u.udp_blocked = (i % 3) == 0;
  u.rtsp_blocked = (i % 5) == 0;
  u.clips_to_play = 10 + i;
  u.clips_to_rate = i % 7;
  u.isp_load_lo = 0.05 * i;
  u.isp_load_hi = 0.5 + 0.05 * i;
  u.seed = 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(i + 1);
  return u;
}

}  // namespace rv::study
