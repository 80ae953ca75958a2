// RealTracer analog: drives one user through their playlist, one simulated
// streaming session per clip, producing TraceRecords (§III.A of the paper).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "faults/config.h"
#include "faults/injector.h"
#include "faults/schedule.h"
#include "media/catalog.h"
#include "net/network.h"
#include "server/real_server.h"
#include "telemetry/series.h"
#include "tracer/play_plan.h"
#include "transport/congestion_control.h"
#include "tracer/record.h"
#include "world/path_builder.h"
#include "world/region_graph.h"
#include "world/servers.h"
#include "world/users.h"

namespace rv::tracer {

struct TracerConfig {
  SimTime watch_duration = sec(60);   // RealTracer's per-clip play window
  // A play's simulation ends when its player finishes (at the latest at
  // the player's session timeout); this only caps it.
  SimTime play_horizon = sec(220);
  // Probability a play uses TCP straight away (user/ISP auto-config state),
  // on top of firewalled-UDP fallbacks. Calibrates the Fig 16 protocol mix.
  double direct_tcp_probability = 0.22;
  server::CongestionControlKind udp_control =
      server::CongestionControlKind::kAimd;
  world::PathBuilderConfig path;
  // Overrides for ablation benches.
  bool surestream_enabled = true;
  bool svt_enabled = true;
  bool adaptive_packet_size = true;
  // Live content (paper §VIII): the sender is pinned to the live edge.
  bool live_content = false;
  // RFC 2018 SACK on both TCP endpoints (ablation; 2001 stacks were mixed).
  bool tcp_sack = false;
  // TCP congestion-control backend on both endpoints (--cc reno|cubic|bbr).
  // kReno is the paper-era default and keeps the pinned cache bytes; the
  // others re-run the TCP comparisons under modern congestion control.
  transport::CcAlgorithm tcp_cc = transport::CcAlgorithm::kReno;
  double preroll_media_seconds = 8.0;
  // Deterministic fault injection (outage schedules, overload stalls, link
  // faults). Off by default: the legacy Bernoulli availability model runs.
  faults::FaultConfig faults;
  // Per-play tracing + counters (docs/OBSERVABILITY.md). Excluded from the
  // study-cache fingerprint: purely observational, never changes results.
  obs::ObsConfig obs;
  // Per-play time-series sampling (src/telemetry). Same fingerprint
  // exclusion and determinism contract as obs.
  telemetry::TelemetryConfig telemetry;
};

// Reusable per-worker execution state. The Simulator outlives individual
// plays: its event-slot chunks and heap buffer are retained across
// sessions, so a play reuses the buffers its predecessors grew. One context
// per worker thread; contexts must never be shared concurrently.
// Line-aligned so that the contexts the engine allocates up front, one per
// worker, never share a cache line.
struct alignas(64) PlayContext {
  sim::Simulator sim;

  PlayContext() = default;
  PlayContext(const PlayContext&) = delete;
  PlayContext& operator=(const PlayContext&) = delete;
};

class RealTracer {
 public:
  RealTracer(const media::Catalog& catalog, const world::RegionGraph& graph,
             const TracerConfig& config);

  // Runs the user's whole playlist; deterministic in (user, study_seed).
  // Implemented as plan_user + run_play over one context, so it is the
  // serial reference for the parallel executor by construction.
  std::vector<TraceRecord> run_user(const world::UserProfile& user,
                                    std::uint64_t study_seed) const;

  // Planning pass: serially precomputes everything coupled across this
  // user's plays (per-play rng forks, the rate-this-clip set, the rater
  // profile, mechanistic-unavailability site ranks, fault draws, force-TCP
  // decisions) and appends one self-contained PlayTask per play to
  // `plan.tasks` (record_slot = position in plan.tasks). Pure: consumes no
  // state shared with other users beyond the access-time plan.
  void plan_user(const world::UserProfile& user, std::uint64_t study_seed,
                 std::uint32_t user_index, StudyPlan& plan) const;

  // Plans the whole population (tasks in user-major, play-minor record
  // order) and finalizes the cost-descending execution order.
  StudyPlan build_plan(const std::vector<world::UserProfile>& users,
                       std::uint64_t study_seed) const;

  // Execution pass: runs one planned play in `ctx` and returns its record.
  // `user` must be the profile plan_user saw for task.user_index. Safe to
  // call from multiple threads with distinct contexts; tasks may execute in
  // any order — the result depends only on the task.
  TraceRecord run_play(const PlayTask& task, const world::UserProfile& user,
                       PlayContext& ctx) const;

  // Mechanistic unavailability samples each play's access time on the
  // campaign timeline. Given the (already play-scaled) population, this
  // precomputes each site's total access count and each user's starting
  // rank into it, so the site's accesses land on a uniform grid over the
  // campaign — the per-site empirical unavailable fraction then matches
  // the schedule's outage fraction to well under a point. Call before
  // run_user (the study driver does); without a plan, run_user falls back
  // to per-user systematic sampling, which is noisier. No-op unless
  // mechanistic unavailability is enabled.
  void plan_access_times(const std::vector<world::UserProfile>& users);

  // Streaming equivalent of plan_access_times for sharded campaigns: call
  // access_plan_begin(), feed every user of the (already play-scaled)
  // population in id order, then plan/run as usual. Only users added with
  // `keep_base` set get a per-user starting rank — a shard marks just its
  // own range, so its memory stays bounded by the shard while the site
  // totals still cover the whole campaign. Both calls are no-ops unless
  // mechanistic unavailability is enabled.
  void access_plan_begin();
  void access_plan_add(const world::UserProfile& user, bool keep_base);

  // Runs a single play and returns its record (used by Fig 1 and the
  // ablation benches). `udp_blocked`/`force_tcp` override the user profile;
  // `play_faults` (optional) injects this play's faults. `tap` (optional)
  // watches the play's network; it is passive, so the record is the same
  // with or without it.
  TraceRecord run_single(const world::UserProfile& user,
                         std::size_t playlist_index, std::uint64_t play_seed,
                         bool force_tcp = false,
                         const faults::PlayFaults* play_faults = nullptr,
                         net::DeliveryTap tap = nullptr) const;

  // The per-site outage schedules (empty unless mechanistic unavailability
  // is enabled). Exposed for calibration tests and benches.
  const faults::SiteOutageTable& outages() const { return outages_; }

 private:
  // The streaming-session core shared by run_single and run_play: resets
  // ctx.sim, builds the play's path, and simulates one play. `observe`
  // installs a trace sink for the play and snapshots it into the record's
  // obs member; `tap`, when set, is installed on the play's network.
  TraceRecord run_session(PlayContext& ctx, const world::UserProfile& user,
                          std::size_t playlist_index, std::uint64_t play_seed,
                          bool force_tcp,
                          const faults::PlayFaults* play_faults, bool observe,
                          net::DeliveryTap tap = nullptr) const;

  const media::Catalog& catalog_;
  const world::RegionGraph& graph_;
  TracerConfig config_;
  faults::SiteOutageTable outages_;
  // Access-time plan: per-site campaign access totals, and each user's
  // per-site starting rank (population order). Empty until
  // plan_access_times runs.
  std::vector<int> site_access_total_;
  std::unordered_map<int, std::vector<int>> user_site_base_;
};

}  // namespace rv::tracer
