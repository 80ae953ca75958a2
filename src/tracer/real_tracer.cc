#include "tracer/real_tracer.h"
#include <cmath>

#include <algorithm>
#include <optional>

#include "client/real_player.h"
#include "telemetry/sampler.h"
#include "tracer/rating.h"
#include "util/check.h"

namespace rv::tracer {
namespace {

TraceRecord base_record(const world::UserProfile& user,
                        const media::Catalog& catalog,
                        std::size_t playlist_index) {
  const media::Clip& clip = catalog.clip(playlist_index);
  const std::size_t site_idx = media::Catalog::site_of(clip.id());
  const auto& site = world::server_sites().at(site_idx);
  TraceRecord rec;
  rec.user_id = user.id;
  rec.country = user.country;
  rec.us_state = user.us_state;
  rec.user_group = user.group;
  rec.connection = user.connection;
  rec.pc_class = user.pc_class;
  rec.rtsp_blocked_user = user.rtsp_blocked;
  rec.clip_id = clip.id();
  rec.site = site_idx;
  rec.server_name = site.name;
  rec.server_country = site.country;
  rec.server_group = site.group;
  return rec;
}

// Relative session cost for the cost-descending schedule. Event volume
// scales with the watch window and, roughly, with the connection's line rate
// (a T1 play moves ~20x the packets of a modem play); an unreachable-server
// play only exercises the retry ladder. Only the *ordering* matters, and
// only for tail latency — a wrong estimate can never change results.
double estimate_cost(const TracerConfig& config,
                     const world::UserProfile& user, bool server_unreachable) {
  const double bw_kbps = to_kbps(world::reported_bandwidth_for(user.connection));
  double est = to_seconds(config.watch_duration) * (0.2 + bw_kbps / 500.0);
  if (server_unreachable) est *= 0.1;
  return est;
}

}  // namespace

RealTracer::RealTracer(const media::Catalog& catalog,
                       const world::RegionGraph& graph,
                       const TracerConfig& config)
    : catalog_(catalog), graph_(graph), config_(config) {
  if (config_.faults.enabled && config_.faults.mechanistic_unavailability) {
    // Calibrate each site's outage time budget to its Fig 10 rate; the
    // per-access unavailable fraction then *emerges* from where accesses
    // land on the campaign timeline.
    std::vector<double> targets;
    for (const auto& site : world::server_sites()) {
      targets.push_back(site.unavailability);
    }
    outages_ = faults::SiteOutageTable(config_.faults, targets);
  }
}

void RealTracer::plan_access_times(
    const std::vector<world::UserProfile>& users) {
  access_plan_begin();
  for (const auto& user : users) access_plan_add(user, /*keep_base=*/true);
}

void RealTracer::access_plan_begin() {
  if (!config_.faults.enabled || !config_.faults.mechanistic_unavailability) {
    return;
  }
  site_access_total_.assign(world::server_sites().size(), 0);
  user_site_base_.clear();
}

void RealTracer::access_plan_add(const world::UserProfile& user,
                                 bool keep_base) {
  if (!config_.faults.enabled || !config_.faults.mechanistic_unavailability) {
    return;
  }
  if (user.rtsp_blocked) return;
  const int plays =
      std::min<int>(user.clips_to_play, static_cast<int>(catalog_.size()));
  if (keep_base) user_site_base_[user.id] = site_access_total_;
  for (int i = 0; i < plays; ++i) {
    const auto idx = static_cast<std::size_t>(i) % catalog_.size();
    ++site_access_total_[media::Catalog::site_of(catalog_.clip(idx).id())];
  }
}

TraceRecord RealTracer::run_session(
    PlayContext& ctx, const world::UserProfile& user,
    std::size_t playlist_index, std::uint64_t play_seed, bool force_tcp,
    const faults::PlayFaults* play_faults, bool observe) const {
  TraceRecord rec = base_record(user, catalog_, playlist_index);
  // Install a sink for the whole session so every hook below
  // (path, server, client, faults) records into this play. Purely
  // observational: no rng draw or event order depends on it.
  std::optional<obs::PlaySink> sink;
  std::optional<obs::ScopedSink> obs_scope;
  if (observe) {
    sink.emplace(obs::TraceBuffer(config_.obs.ring_capacity));
    obs_scope.emplace(&*sink);
  }
  const auto& site = world::server_sites().at(rec.site);
  util::Rng rng(play_seed);

  // Clear the previous play's pending events out of the context *before*
  // the path build schedules this play's. After reset the simulator is
  // observationally a fresh one, so reuse cannot perturb results.
  sim::Simulator& sim = ctx.sim;
  sim.reset();
  const world::AccessSpec access =
      world::access_spec_for(user.connection, rng);
  // Declared before the server and the player, so it outlives both.
  world::PlayPath path = world::PathBuilder(graph_, config_.path)
                             .build(sim, user, access, site, rng);
  path.start_cross_traffic();

  server::RealServerConfig server_cfg;
  server_cfg.udp_control = config_.udp_control;
  server_cfg.sender.surestream_enabled = config_.surestream_enabled;
  server_cfg.sender.svt_enabled = config_.svt_enabled;
  server_cfg.sender.adaptive_packet_size = config_.adaptive_packet_size;
  server_cfg.sender.live = config_.live_content;
  server_cfg.tcp.sack_enabled = config_.tcp_sack;
  server_cfg.tcp.cc = config_.tcp_cc;
  server_cfg.sender.preroll_media_seconds = config_.preroll_media_seconds;
  if (play_faults != nullptr && play_faults->overload_stall_until > 0) {
    server_cfg.response_stall_until = play_faults->overload_stall_until;
    obs::emit(0, obs::Code::kFaultOverload,
              static_cast<std::uint64_t>(play_faults->overload_stall_until));
  }
  server::RealServerApp server(*path.network, path.server_node, catalog_,
                               server_cfg, rng.fork("server"));

  client::RealPlayerConfig player_cfg;
  player_cfg.playout.pc = client::pc_class_by_name(user.pc_class);
  player_cfg.playout.preroll_target_sec = config_.preroll_media_seconds;
  // Desktop playout wobble varies widely across machines and sessions.
  player_cfg.playout.host_timing_noise_ms =
      std::clamp(rng.lognormal(std::log(20.0), 0.8), 2.0, 120.0);
  player_cfg.playout.noise_seed = rng.next_u64();
  player_cfg.reported_bandwidth =
      world::reported_bandwidth_for(user.connection);
  player_cfg.watch_duration = config_.watch_duration;
  player_cfg.tcp.sack_enabled = config_.tcp_sack;
  player_cfg.tcp.cc = config_.tcp_cc;
  player_cfg.udp_blocked = user.udp_blocked;
  player_cfg.prefer_udp = !force_tcp;
  client::RealPlayerApp player(*path.network, path.client_node,
                               {path.server_node, net::kRtspPort},
                               catalog_.clip(playlist_index).id(), catalog_,
                               player_cfg);

  // Link faults last, so legacy plays consume an identical rng stream.
  std::unique_ptr<faults::LinkFaultInjector> injector;
  if (play_faults != nullptr) {
    std::vector<faults::LinkFaultSpec> specs = play_faults->link_faults;
    if (play_faults->server_unreachable) {
      // Site outage: its access segment blackholes for the whole play; the
      // client's retry ladder exhausts and reports the clip unavailable.
      obs::emit(0, obs::Code::kFaultOutage, rec.site);
      faults::LinkFaultSpec down;
      down.link_index = world::PlayPath::kServerAccess;
      down.kind = faults::LinkFaultKind::kDown;
      down.start = 0;
      down.duration = config_.play_horizon + sec(1);
      specs.push_back(down);
    }
    if (!specs.empty()) {
      injector = std::make_unique<faults::LinkFaultInjector>(
          *path.network, std::move(specs), rng.fork("link-faults"));
    }
  }

  // The sampler only *reads* player/server/link state on a fixed sim-time
  // grid — no rng draws, no observable mutation — so enabling it cannot
  // change the play's outcome (its timer events renumber later event seqs,
  // which never reorders existing ties; see telemetry/series.h).
  telemetry::Series series;
  std::optional<telemetry::PlaySampler> sampler;
  if (config_.telemetry.enabled) {
    series.reset(world::PlayPath::kLinkCount);
    telemetry::Probe probe;
    probe.buffer_sec = [&player] { return player.buffered_media_seconds(); };
    probe.frames_played = [&player] { return player.frames_played_so_far(); };
    probe.bytes_received = [&player] {
      return player.bytes_received_so_far();
    };
    probe.cwnd_bytes = [&server] { return server.last_session_cwnd_bytes(); };
    probe.tcp_retransmits = [&server] {
      return server.last_session_tcp_retransmits();
    };
    probe.pacing_bps = [&server] { return server.last_session_pacing_bps(); };
    probe.cc_state = [&server] { return server.last_session_cc_state(); };
    probe.finished = [&player] { return player.finished(); };
    sampler.emplace(sim, path.network.get(), world::PlayPath::kLinkCount,
                    std::move(probe), &series, config_.telemetry.interval);
    sampler->start();
  }

  // The record is frozen once the player finishes: finish() stops every
  // player timer and fixes the playout result, and every writer of the
  // stats and the availability flag returns early after it. So the play
  // ends there; what follows (teardown, server lingers, cross traffic)
  // could move only the observational counters. play_horizon is a cap.
  player.set_on_finished([&sim] { sim.stop(); });
  player.start();
  sim.run_until(config_.play_horizon);

  rec.available = !player.clip_unavailable();
  rec.stats = player.stats();
  // Frame conservation: what the player played or dropped it received, and
  // what it received the server sent. The sent side counts frame packets
  // (fragments and repairs), since a late fragment or a repair can start a
  // completed or discarded frame again at the client.
  RV_DCHECK(rec.stats.frames_played + rec.stats.frames_dropped <=
                player.frames_received() &&
            static_cast<std::uint64_t>(player.frames_received()) <=
                server.total_frame_packets_sent())
      << "frames played " << rec.stats.frames_played << " + dropped "
      << rec.stats.frames_dropped << ", received "
      << player.frames_received() << ", frame packets sent "
      << server.total_frame_packets_sent();
  if (config_.telemetry.enabled) {
    rec.series.enabled = true;
    rec.series.interval = config_.telemetry.interval;
    // Copied, not moved: a copy's columns hold exactly their samples, where
    // the sampler's grew by doubling, and a whole chunk of records stays in
    // memory (writing in place raised campaign peak RSS by half).
    rec.series.data = series;
  }
  if (observe) {
    obs_scope.reset();  // stop recording before the snapshot
    sink->counters.add(obs::Counter::kSimEvents, sim.events_executed());
    rec.obs.enabled = true;
    rec.obs.events = sink->buffer.snapshot();
    rec.obs.events_dropped = sink->buffer.dropped();
    rec.obs.counters = sink->counters;
  }
  return rec;
}

TraceRecord RealTracer::run_single(const world::UserProfile& user,
                                   std::size_t playlist_index,
                                   std::uint64_t play_seed,
                                   bool force_tcp,
                                   const faults::PlayFaults* play_faults) const {
  PlayContext ctx;
  // Standalone plays have no per-user play index; the playlist index
  // doubles as the --trace-play match key.
  const bool observe = config_.obs.selects(
      static_cast<std::uint32_t>(user.id),
      static_cast<std::uint32_t>(playlist_index));
  return run_session(ctx, user, playlist_index, play_seed, force_tcp,
                     play_faults, observe);
}

void RealTracer::plan_user(const world::UserProfile& user,
                           std::uint64_t study_seed, std::uint32_t user_index,
                           StudyPlan& plan) const {
  // The draws below replay the pre-split run_user loop verbatim — same
  // streams, same order — so a planned play's seed, faults and rating state
  // are bit-identical to what the serial code would have used.
  util::Rng user_rng(user.seed ^ study_seed);
  const int plays =
      std::min<int>(user.clips_to_play, static_cast<int>(catalog_.size()));

  // Which of the played clips this user rates (spread over the session).
  std::vector<std::size_t> order(static_cast<std::size_t>(plays));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::size_t> to_rate = order;
  user_rng.shuffle(to_rate);
  to_rate.resize(std::min<std::size_t>(
      static_cast<std::size_t>(user.clips_to_rate), to_rate.size()));
  std::sort(to_rate.begin(), to_rate.end());

  RaterProfile rater = make_rater(user_rng);

  // Mechanistic unavailability: this user's running access count per site
  // (their rank within a site advances with each visit).
  const bool mechanistic =
      config_.faults.enabled && config_.faults.mechanistic_unavailability;
  std::vector<int> site_seen;
  std::vector<int> site_mine;
  const std::vector<int>* site_base = nullptr;
  if (mechanistic) {
    site_seen.assign(world::server_sites().size(), 0);
    const auto it = user_site_base_.find(user.id);
    if (it != user_site_base_.end()) {
      site_base = &it->second;
    } else {
      // No population plan: fall back to systematic sampling over this
      // user's own accesses to each site.
      site_mine.assign(world::server_sites().size(), 0);
      for (int i = 0; i < plays; ++i) {
        const auto idx = static_cast<std::size_t>(i) % catalog_.size();
        ++site_mine[media::Catalog::site_of(catalog_.clip(idx).id())];
      }
    }
  }

  plan.tasks.reserve(plan.tasks.size() + static_cast<std::size_t>(plays));
  for (int i = 0; i < plays; ++i) {
    const auto playlist_index =
        static_cast<std::size_t>(i) % catalog_.size();
    util::Rng play_rng = user_rng.fork(static_cast<std::uint64_t>(i));

    PlayTask task;
    task.user_index = user_index;
    task.play_index = static_cast<std::uint32_t>(i);
    task.record_slot = plan.tasks.size();
    task.playlist_index = playlist_index;
    task.record = base_record(user, catalog_, playlist_index);

    if (user.rtsp_blocked) {
      // Firewalled participant: RTSP never gets through; the paper removed
      // these users from all analysis (§IV).
      task.record.available = false;
      plan.tasks.push_back(std::move(task));
      continue;
    }

    const auto& site = world::server_sites().at(task.record.site);
    faults::PlayFaults pf;
    if (mechanistic) {
      // Access time over the measurement campaign. With a population plan,
      // the k-th access to a site (across all users, population order)
      // lands at grid point (k + 1/2)/n of the campaign: the site's
      // accesses sample its timeline uniformly, so the empirical
      // unavailable fraction tracks the schedule's outage fraction to well
      // under a point. Without a plan, each user spreads their own m
      // accesses to the site systematically, offset by a golden-ratio
      // slot — noisier, but still far tighter than independent draws.
      double pos;
      if (site_base != nullptr) {
        const int rank = (*site_base)[task.record.site] +
                         site_seen[task.record.site];
        pos = (rank + 0.5) / site_access_total_[task.record.site];
      } else {
        constexpr double kGolden = 0.6180339887498949;
        const double slot = std::fmod(
            static_cast<double>(user.id + 1) * kGolden, 1.0);
        pos = (site_seen[task.record.site] + slot) /
              site_mine[task.record.site];
      }
      ++site_seen[task.record.site];
      const SimTime access_time = seconds_to_sim(
          to_seconds(config_.faults.campaign_duration) * pos);
      pf.server_unreachable =
          outages_.unavailable_at(task.record.site, access_time);
    } else if (play_rng.bernoulli(site.unavailability)) {
      task.record.available = false;  // Fig 10: clip unreachable this time
      plan.tasks.push_back(std::move(task));
      continue;
    }
    if (config_.faults.enabled) {
      const faults::PlayFaults drawn = faults::draw_play_faults(
          config_.faults, world::PlayPath::kLinkCount, play_rng);
      pf.overload_stall_until = drawn.overload_stall_until;
      pf.link_faults = drawn.link_faults;
    }

    task.force_tcp = play_rng.bernoulli(config_.direct_tcp_probability);
    task.play_seed = play_rng.next_u64();
    task.needs_sim = true;
    task.has_faults = config_.faults.enabled;
    task.faults = std::move(pf);
    task.rate = std::binary_search(to_rate.begin(), to_rate.end(),
                                   static_cast<std::size_t>(i));
    task.rater = rater;
    task.post_rng = play_rng;
    task.est_cost = estimate_cost(config_, user, task.faults.server_unreachable);
    plan.tasks.push_back(std::move(task));
  }
}

StudyPlan RealTracer::build_plan(const std::vector<world::UserProfile>& users,
                                 std::uint64_t study_seed) const {
  StudyPlan plan;
  for (std::size_t u = 0; u < users.size(); ++u) {
    plan_user(users[u], study_seed, static_cast<std::uint32_t>(u), plan);
  }
  finalize_order(plan);
  return plan;
}

TraceRecord RealTracer::run_play(const PlayTask& task,
                                 const world::UserProfile& user,
                                 PlayContext& ctx) const {
  if (!task.needs_sim) return task.record;
  const bool observe = config_.obs.selects(
      static_cast<std::uint32_t>(user.id), task.play_index);
  TraceRecord rec =
      run_session(ctx, user, task.playlist_index, task.play_seed,
                  task.force_tcp, task.has_faults ? &task.faults : nullptr,
                  observe);
  if (task.rate && rec.analyzable()) {
    util::Rng rng = task.post_rng;
    rec.rating = rate_clip(task.rater, rec.stats, rng);
  }
  return rec;
}

std::vector<TraceRecord> RealTracer::run_user(
    const world::UserProfile& user, std::uint64_t study_seed) const {
  StudyPlan plan;
  plan_user(user, study_seed, 0, plan);
  PlayContext ctx;
  std::vector<TraceRecord> records;
  records.reserve(plan.tasks.size());
  for (const PlayTask& task : plan.tasks) {
    records.push_back(run_play(task, user, ctx));
  }
  return records;
}

}  // namespace rv::tracer
