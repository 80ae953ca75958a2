// Differential test: a play's simulation ends at the event in which its
// player finishes (RealTracer::run_play), against a test-local replica of
// the session that runs every play on to TracerConfig::play_horizon.
//
// The record is frozen at the finish, so every record field must be equal:
// identity, availability, the rating, every ClipStats field with the 1 Hz
// samples, and the telemetry series. With tracing on, the played part of the
// trace must be the same too: the trace events are a prefix of the
// replica's (what the replica adds is the teardown after the finish), and
// only the counters of that teardown differ (events, packets, TCP recovery).
// The plays cover UDP, TCP, the HTTP-cloak fallback, unreachable sites,
// overload stalls, link faults and telemetry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "client/real_player.h"
#include "faults/injector.h"
#include "server/real_server.h"
#include "study/study.h"
#include "telemetry/sampler.h"
#include "tracer/rating.h"
#include "tracer/real_tracer.h"
#include "world/path_builder.h"
#include "world/region_graph.h"
#include "world/users.h"

namespace rv::tracer {
namespace {

// run_session's set-up, draw for draw, then run_until(play_horizon) with no
// finish hook; and run_play's rating step.
TraceRecord run_to_horizon(const media::Catalog& catalog,
                           const world::RegionGraph& graph,
                           const TracerConfig& config, const PlayTask& task,
                           const world::UserProfile& user,
                           sim::Simulator& sim) {
  TraceRecord rec = task.record;
  const bool observe = config.obs.selects(static_cast<std::uint32_t>(user.id),
                                          task.play_index);
  std::optional<obs::PlaySink> sink;
  std::optional<obs::ScopedSink> obs_scope;
  if (observe) {
    sink.emplace(obs::TraceBuffer(config.obs.ring_capacity));
    obs_scope.emplace(&*sink);
  }
  const auto& site = world::server_sites().at(rec.site);
  util::Rng rng(task.play_seed);
  sim.reset();
  const world::AccessSpec access =
      world::access_spec_for(user.connection, rng);
  world::PlayPath path =
      world::PathBuilder(graph, config.path).build(sim, user, access, site,
                                                   rng);
  path.start_cross_traffic();

  const faults::PlayFaults* play_faults =
      task.has_faults ? &task.faults : nullptr;
  server::RealServerConfig server_cfg;
  server_cfg.udp_control = config.udp_control;
  server_cfg.sender.surestream_enabled = config.surestream_enabled;
  server_cfg.sender.svt_enabled = config.svt_enabled;
  server_cfg.sender.adaptive_packet_size = config.adaptive_packet_size;
  server_cfg.sender.live = config.live_content;
  server_cfg.tcp.sack_enabled = config.tcp_sack;
  server_cfg.tcp.cc = config.tcp_cc;
  server_cfg.sender.preroll_media_seconds = config.preroll_media_seconds;
  if (play_faults != nullptr && play_faults->overload_stall_until > 0) {
    server_cfg.response_stall_until = play_faults->overload_stall_until;
    obs::emit(0, obs::Code::kFaultOverload,
              static_cast<std::uint64_t>(play_faults->overload_stall_until));
  }
  server::RealServerApp server(*path.network, path.server_node, catalog,
                               server_cfg, rng.fork("server"));

  client::RealPlayerConfig player_cfg;
  player_cfg.playout.pc = client::pc_class_by_name(user.pc_class);
  player_cfg.playout.preroll_target_sec = config.preroll_media_seconds;
  player_cfg.playout.host_timing_noise_ms =
      std::clamp(rng.lognormal(std::log(20.0), 0.8), 2.0, 120.0);
  player_cfg.playout.noise_seed = rng.next_u64();
  player_cfg.reported_bandwidth =
      world::reported_bandwidth_for(user.connection);
  player_cfg.watch_duration = config.watch_duration;
  player_cfg.tcp.sack_enabled = config.tcp_sack;
  player_cfg.tcp.cc = config.tcp_cc;
  player_cfg.udp_blocked = user.udp_blocked;
  player_cfg.prefer_udp = !task.force_tcp;
  client::RealPlayerApp player(*path.network, path.client_node,
                               {path.server_node, net::kRtspPort},
                               catalog.clip(task.playlist_index).id(), catalog,
                               player_cfg);

  std::unique_ptr<faults::LinkFaultInjector> injector;
  if (play_faults != nullptr) {
    std::vector<faults::LinkFaultSpec> specs = play_faults->link_faults;
    if (play_faults->server_unreachable) {
      obs::emit(0, obs::Code::kFaultOutage, rec.site);
      faults::LinkFaultSpec down;
      down.link_index = world::PlayPath::kServerAccess;
      down.kind = faults::LinkFaultKind::kDown;
      down.start = 0;
      down.duration = config.play_horizon + sec(1);
      specs.push_back(down);
    }
    if (!specs.empty()) {
      injector = std::make_unique<faults::LinkFaultInjector>(
          *path.network, std::move(specs), rng.fork("link-faults"));
    }
  }

  telemetry::Series series;
  std::optional<telemetry::PlaySampler> sampler;
  if (config.telemetry.enabled) {
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
                    std::move(probe), &series, config.telemetry.interval);
    sampler->start();
  }

  player.start();
  sim.run_until(config.play_horizon);

  rec.available = !player.clip_unavailable();
  rec.stats = player.stats();
  if (config.telemetry.enabled) {
    rec.series.enabled = true;
    rec.series.interval = config.telemetry.interval;
    rec.series.data = series;
  }
  if (observe) {
    obs_scope.reset();
    sink->counters.add(obs::Counter::kSimEvents, sim.events_executed());
    rec.obs.enabled = true;
    rec.obs.events = sink->buffer.snapshot();
    rec.obs.events_dropped = sink->buffer.dropped();
    rec.obs.counters = sink->counters;
  }
  if (task.rate && rec.analyzable()) {
    util::Rng post = task.post_rng;
    rec.rating = rate_clip(task.rater, rec.stats, post);
  }
  return rec;
}

void expect_same_stats(const client::ClipStats& a, const client::ClipStats& b) {
  EXPECT_EQ(a.session_established, b.session_established);
  EXPECT_EQ(a.played_any_frame, b.played_any_frame);
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.fell_back_to_tcp, b.fell_back_to_tcp);
  EXPECT_EQ(a.fell_back_to_http, b.fell_back_to_http);
  EXPECT_EQ(a.rtsp_retries, b.rtsp_retries);
  EXPECT_EQ(a.encoded_bandwidth, b.encoded_bandwidth);
  EXPECT_EQ(a.encoded_fps, b.encoded_fps);
  EXPECT_EQ(a.measured_bandwidth, b.measured_bandwidth);
  EXPECT_EQ(a.measured_fps, b.measured_fps);
  EXPECT_EQ(a.jitter_ms, b.jitter_ms);
  EXPECT_EQ(a.frames_played, b.frames_played);
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.frames_cpu_scaled, b.frames_cpu_scaled);
  EXPECT_EQ(a.rebuffer_events, b.rebuffer_events);
  EXPECT_EQ(a.rebuffer_seconds, b.rebuffer_seconds);
  EXPECT_EQ(a.preroll_seconds, b.preroll_seconds);
  EXPECT_EQ(a.play_seconds, b.play_seconds);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.bytes_received, b.bytes_received);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.repairs_received, b.repairs_received);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].t_seconds, b.samples[i].t_seconds);
    EXPECT_EQ(a.samples[i].bandwidth, b.samples[i].bandwidth);
    EXPECT_EQ(a.samples[i].frame_rate, b.samples[i].frame_rate);
  }
}

// The counters of activity after the finish: the replica's are at least
// the play's, and every other counter is equal.
bool counts_teardown(obs::Counter c) {
  switch (c) {
    case obs::Counter::kPacketsEnqueued:
    case obs::Counter::kPacketsDropped:
    case obs::Counter::kPacketsCorrupted:
    case obs::Counter::kTcpRetransmits:
    case obs::Counter::kSackRetransmits:
    case obs::Counter::kSimEvents:
    case obs::Counter::kCcRecoveryEnters:
      return true;
    default:
      return false;
  }
}

void expect_same_record(const TraceRecord& ref, const TraceRecord& rec) {
  EXPECT_EQ(ref.user_id, rec.user_id);
  EXPECT_EQ(ref.country, rec.country);
  EXPECT_EQ(ref.us_state, rec.us_state);
  EXPECT_EQ(ref.user_group, rec.user_group);
  EXPECT_EQ(ref.connection, rec.connection);
  EXPECT_EQ(ref.pc_class, rec.pc_class);
  EXPECT_EQ(ref.rtsp_blocked_user, rec.rtsp_blocked_user);
  EXPECT_EQ(ref.clip_id, rec.clip_id);
  EXPECT_EQ(ref.site, rec.site);
  EXPECT_EQ(ref.server_name, rec.server_name);
  EXPECT_EQ(ref.server_country, rec.server_country);
  EXPECT_EQ(ref.server_group, rec.server_group);
  EXPECT_EQ(ref.available, rec.available);
  EXPECT_EQ(ref.rating, rec.rating);
  expect_same_stats(ref.stats, rec.stats);
  EXPECT_TRUE(ref.series == rec.series);

  ASSERT_EQ(ref.obs.enabled, rec.obs.enabled);
  if (!ref.obs.enabled) return;
  ASSERT_EQ(ref.obs.events_dropped, 0u) << "raise the ring capacity";
  EXPECT_EQ(rec.obs.events_dropped, 0u);
  ASSERT_LE(rec.obs.events.size(), ref.obs.events.size());
  EXPECT_EQ(std::memcmp(rec.obs.events.data(), ref.obs.events.data(),
                        rec.obs.events.size() * sizeof(obs::TraceEvent)),
            0)
      << "the play's trace is not a prefix of the replica's";
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Counter::kCount);
       ++i) {
    const auto c = static_cast<obs::Counter>(i);
    SCOPED_TRACE(obs::counter_name(c));
    if (counts_teardown(c)) {
      EXPECT_LE(rec.obs.counters.get(c), ref.obs.counters.get(c));
    } else {
      EXPECT_EQ(rec.obs.counters.get(c), ref.obs.counters.get(c));
    }
  }
}

struct Coverage {
  int plays = 0;
  int udp = 0;
  int tcp = 0;
  int http_fallback = 0;
  int unreachable = 0;
  int overload = 0;
  int link_faults = 0;
  int series = 0;
  int rated = 0;
  std::uint64_t events_saved = 0;
};

// Plans up to `plays_per_user` plays for every user of the paper's
// population and runs each both ways, comparing the records.
Coverage compare_population(const TracerConfig& config, int plays_per_user) {
  const media::Catalog catalog = study::make_catalog(study::StudyConfig{});
  const world::RegionGraph graph;
  RealTracer tracer(catalog, graph, config);
  std::vector<world::UserProfile> users =
      world::generate_population(world::PopulationConfig{});
  for (auto& u : users) {
    u.clips_to_play = std::min(u.clips_to_play, plays_per_user);
    u.clips_to_rate = std::min(u.clips_to_rate, u.clips_to_play);
  }
  tracer.plan_access_times(users);
  const StudyPlan plan = tracer.build_plan(users, 2001);

  Coverage cov;
  PlayContext ctx;
  sim::Simulator reference_sim;
  for (const PlayTask& task : plan.tasks) {
    if (!task.needs_sim) continue;
    const world::UserProfile& user = users[task.user_index];
    SCOPED_TRACE(testing::Message() << "user " << user.id << " play "
                                    << task.play_index);
    const TraceRecord rec = tracer.run_play(task, user, ctx);
    const TraceRecord ref =
        run_to_horizon(catalog, graph, config, task, user, reference_sim);
    expect_same_record(ref, rec);

    ++cov.plays;
    ++(rec.stats.protocol == net::Protocol::kUdp ? cov.udp : cov.tcp);
    cov.http_fallback += rec.stats.fell_back_to_http;
    cov.unreachable += task.faults.server_unreachable;
    cov.overload += task.faults.overload_stall_until > 0;
    cov.link_faults += !task.faults.link_faults.empty();
    cov.series += !rec.series.data.t.empty();
    cov.rated += rec.rated();
    cov.events_saved += ref.obs.counters.get(obs::Counter::kSimEvents) -
                        rec.obs.counters.get(obs::Counter::kSimEvents);
  }
  return cov;
}

TEST(SessionEnd, EndingAtTheFinishMatchesRunningToTheHorizon) {
  // The study's defaults (cross traffic on) with every fault kind, a
  // doubled outage rate, telemetry and tracing on.
  TracerConfig config;
  config.faults.enabled = true;
  config.faults.seed = 11;
  config.faults.mechanistic_unavailability = true;
  config.faults.outage_scale = 2.0;
  config.faults.overload_probability = 0.15;
  config.faults.link_down_probability = 0.15;
  config.faults.corruption_probability = 0.15;
  config.telemetry.enabled = true;
  config.obs.enabled = true;
  config.obs.ring_capacity = 1u << 17;
  const Coverage cov = compare_population(config, 4);

  EXPECT_GE(cov.plays, 200);
  EXPECT_GT(cov.udp, 0);
  EXPECT_GT(cov.tcp, 0);
  EXPECT_GT(cov.http_fallback, 0);
  EXPECT_GT(cov.unreachable, 0);
  EXPECT_GT(cov.overload, 0);
  EXPECT_GT(cov.link_faults, 0);
  EXPECT_GT(cov.series, cov.plays / 2);
  EXPECT_GT(cov.rated, 0);
  // The replica does simulate past the finish.
  EXPECT_GT(cov.events_saved, 0u);
}

TEST(SessionEnd, EndingAtTheFinishMatchesWithoutCrossTrafficAndWithSack) {
  // campaign-foreground's shape: cross traffic off, SACK on, overload
  // stalls; tracing on, telemetry off.
  TracerConfig config;
  config.path.negligible_load = 2.0;
  config.tcp_sack = true;
  config.faults.enabled = true;
  config.faults.seed = 5;
  config.faults.overload_probability = 0.1;
  config.obs.enabled = true;
  config.obs.ring_capacity = 1u << 17;
  const Coverage cov = compare_population(config, 1);

  EXPECT_GE(cov.plays, 40);
  EXPECT_GT(cov.udp, 0);
  EXPECT_GT(cov.tcp, 0);
  EXPECT_EQ(cov.series, 0);
  EXPECT_GT(cov.events_saved, 0u);
}

}  // namespace
}  // namespace rv::tracer
