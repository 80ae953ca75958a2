// The study driver: re-runs the paper's whole June-2001 measurement
// campaign inside the simulator — 63 users, 98-clip playlist, 11 servers —
// and returns every TraceRecord for analysis.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "media/catalog.h"
#include "tracer/real_tracer.h"
#include "world/region_graph.h"
#include "world/users.h"

namespace rv::study {

struct StudyConfig {
  std::uint64_t seed = 2001;
  media::CatalogSpec catalog;
  world::PopulationConfig population;
  tracer::TracerConfig tracer;
  int threads = 0;  // 0 = hardware concurrency
  // Scale factor on per-user play counts (quick test runs set < 1).
  double play_scale = 1.0;
  // Worker self-profiling (--profile): wall-clock phase timings and per-play
  // costs. Off by default — the execute loop then takes no clock reads at
  // all. Wall-clock data never feeds back into simulation state, so results
  // are identical either way; like obs/telemetry it is excluded from the
  // study-cache config fingerprint and never serialized.
  bool profile = false;
};

// One worker thread's execution-phase accounting. Each worker owns exactly
// one slot and bumps it after every play; at 32 payload bytes two unpadded
// slots would share a cache line and profiled runs would ping-pong it
// between cores, so the slot is padded out to a full line.
struct alignas(64) WorkerProfile {
  std::uint64_t plays = 0;          // tasks this worker executed
  double busy_seconds = 0.0;        // wall time inside run_play
  double idle_seconds = 0.0;        // execute wall minus busy (starvation)
  double max_play_seconds = 0.0;    // costliest single play
};
static_assert(sizeof(WorkerProfile) == 64 && alignof(WorkerProfile) == 64,
              "WorkerProfile slots must each own a whole cache line; "
              "re-pad after adding fields");

// Study-level profile: plan/execute phase walls plus per-worker breakdown.
struct StudyProfile {
  bool enabled = false;
  double plan_seconds = 0.0;     // access plan + build_plan, all chunks
  double execute_seconds = 0.0;  // worker-pool wall, all chunks
  std::vector<WorkerProfile> workers;  // one per worker thread
};

struct StudyResult {
  std::vector<world::UserProfile> users;
  std::vector<tracer::TraceRecord> records;
  StudyProfile profile;  // populated only when config.profile

  // Records from non-firewalled users (the paper's analysis set,
  // availability included — Fig 10 uses these).
  std::vector<const tracer::TraceRecord*> accesses() const;
  // Played, reachable records: the performance analysis set.
  std::vector<const tracer::TraceRecord*> played() const;
  // Played and rated records (Figs 26-28).
  std::vector<const tracer::TraceRecord*> rated() const;
};

// Runs the full study: one chunk of the campaign engine (study/engine.h)
// covering the paper population. Deterministic in config.seed (thread count
// does not affect results). Throws util::CheckError on invalid config.
StudyResult run_study(const StudyConfig& config);

// Feeds finished plays to the installed obs::MetricsRegistry (a no-op
// without one): users and plays completed, per-play fps and bandwidth,
// current RSS. The engine calls it per chunk, run_study_cached on a cache
// hit, so /metrics reads the same either way.
void feed_metrics(std::uint64_t users,
                  std::span<const tracer::TraceRecord> records);

// The catalog a study config implies (shared by benches needing clip info).
media::Catalog make_catalog(const StudyConfig& config);

}  // namespace rv::study
