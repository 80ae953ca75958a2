#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "faults/config.h"
#include "faults/injector.h"
#include "faults/schedule.h"
#include "rtsp/retry.h"
#include "study/study.h"
#include "tracer/real_tracer.h"
#include "util/check.h"
#include "util/rng.h"
#include "world/region_graph.h"
#include "world/servers.h"

namespace rv {
namespace {

// --- Outage schedules ------------------------------------------------------

TEST(OutageSchedule, ReproducibleFromSeed) {
  const SimTime horizon = sec(14 * 24 * 3600);
  util::Rng a(42);
  util::Rng b(42);
  const auto sa = faults::make_outage_schedule(a, horizon, 0.10, sec(4 * 3600));
  const auto sb = faults::make_outage_schedule(b, horizon, 0.10, sec(4 * 3600));
  ASSERT_EQ(sa.windows().size(), sb.windows().size());
  for (std::size_t i = 0; i < sa.windows().size(); ++i) {
    EXPECT_EQ(sa.windows()[i].start, sb.windows()[i].start);
    EXPECT_EQ(sa.windows()[i].end, sb.windows()[i].end);
  }
}

TEST(OutageSchedule, WindowsSortedDisjointWithinHorizon) {
  const SimTime horizon = sec(14 * 24 * 3600);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng(seed);
    const auto s = faults::make_outage_schedule(
        rng, horizon, 0.02 * static_cast<double>(seed % 12), sec(4 * 3600));
    SimTime prev_end = 0;
    for (const auto& w : s.windows()) {
      EXPECT_GE(w.start, prev_end) << "seed " << seed;
      EXPECT_GT(w.end, w.start) << "seed " << seed;
      EXPECT_LE(w.end, horizon) << "seed " << seed;
      prev_end = w.end;
    }
  }
}

TEST(OutageSchedule, FractionMatchesTargetExactly) {
  const SimTime horizon = sec(14 * 24 * 3600);
  for (const double target : {0.02, 0.05, 0.10, 0.22}) {
    util::Rng rng(7);
    const auto s =
        faults::make_outage_schedule(rng, horizon, target, sec(4 * 3600));
    // Exact-fraction construction: only integer-microsecond rounding remains.
    EXPECT_NEAR(s.outage_fraction(), target, 1e-6);
  }
}

TEST(OutageSchedule, ZeroTargetMeansAlwaysUp) {
  util::Rng rng(3);
  const auto s = faults::make_outage_schedule(rng, sec(1000), 0.0, sec(10));
  EXPECT_TRUE(s.windows().empty());
  EXPECT_FALSE(s.active_at(0));
  EXPECT_FALSE(s.active_at(sec(500)));
}

TEST(OutageSchedule, ActiveAtMatchesWindows) {
  util::Rng rng(11);
  const auto s = faults::make_outage_schedule(rng, sec(100000), 0.2, sec(500));
  ASSERT_FALSE(s.windows().empty());
  for (const auto& w : s.windows()) {
    EXPECT_TRUE(s.active_at(w.start));
    EXPECT_TRUE(s.active_at(w.end - 1));
    EXPECT_FALSE(s.active_at(w.end));
  }
  EXPECT_FALSE(s.active_at(s.windows().front().start - 1));
}

TEST(SiteOutageTable, CalibratedToFig10Targets) {
  faults::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 2001;
  std::vector<double> targets;
  for (const auto& site : world::server_sites()) {
    targets.push_back(site.unavailability);
  }
  const faults::SiteOutageTable table(cfg, targets);
  ASSERT_EQ(table.size(), targets.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    // Schedule time budget is exact by construction...
    EXPECT_NEAR(table.site(i).outage_fraction(), targets[i], 1e-6)
        << world::server_sites()[i].name;
    // ...and stratified sampling of the campaign timeline recovers it,
    // which is what makes the study's emergent Fig 10 rates land within
    // tolerance.
    const int n = 4000;
    int down = 0;
    for (int k = 0; k < n; ++k) {
      const SimTime t = seconds_to_sim(to_seconds(cfg.campaign_duration) *
                                       (k + 0.5) / n);
      down += table.unavailable_at(i, t);
    }
    EXPECT_NEAR(static_cast<double>(down) / n, targets[i], 0.02)
        << world::server_sites()[i].name;
  }
}

TEST(SiteOutageTable, ReproducibleAndSeedSensitive) {
  std::vector<double> targets = {0.05, 0.10, 0.20};
  faults::FaultConfig cfg;
  cfg.seed = 99;
  const faults::SiteOutageTable a(cfg, targets);
  const faults::SiteOutageTable b(cfg, targets);
  faults::FaultConfig other = cfg;
  other.seed = 100;
  const faults::SiteOutageTable c(other, targets);
  ASSERT_EQ(a.size(), 3u);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.site(i).windows().size(), b.site(i).windows().size());
    for (std::size_t k = 0; k < a.site(i).windows().size(); ++k) {
      EXPECT_EQ(a.site(i).windows()[k].start, b.site(i).windows()[k].start);
      EXPECT_EQ(a.site(i).windows()[k].end, b.site(i).windows()[k].end);
    }
    if (a.site(i).windows().size() != c.site(i).windows().size() ||
        (!a.site(i).windows().empty() &&
         a.site(i).windows()[0].start != c.site(i).windows()[0].start)) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(SiteOutageTable, OutageScaleScalesEverySite) {
  std::vector<double> targets = {0.05, 0.10};
  faults::FaultConfig cfg;
  cfg.seed = 5;
  cfg.outage_scale = 2.0;
  const faults::SiteOutageTable table(cfg, targets);
  EXPECT_NEAR(table.site(0).outage_fraction(), 0.10, 1e-6);
  EXPECT_NEAR(table.site(1).outage_fraction(), 0.20, 1e-6);
}

// --- Per-play fault draws --------------------------------------------------

TEST(PlayFaults, ZeroProbabilitiesDrawNothing) {
  faults::FaultConfig cfg;
  cfg.enabled = true;
  util::Rng rng(1);
  const auto pf = faults::draw_play_faults(cfg, 4, rng);
  EXPECT_FALSE(pf.any());
}

TEST(PlayFaults, CertainFaultsDrawValidSpecs) {
  faults::FaultConfig cfg;
  cfg.enabled = true;
  cfg.overload_probability = 1.0;
  cfg.link_down_probability = 1.0;
  cfg.corruption_probability = 1.0;
  util::Rng rng(17);
  const auto pf = faults::draw_play_faults(cfg, 4, rng);
  EXPECT_TRUE(pf.any());
  EXPECT_GE(pf.overload_stall_until,
            seconds_to_sim(cfg.overload_stall_lo_sec));
  EXPECT_LE(pf.overload_stall_until,
            seconds_to_sim(cfg.overload_stall_hi_sec));
  ASSERT_EQ(pf.link_faults.size(), 2u);
  for (const auto& spec : pf.link_faults) {
    EXPECT_LT(spec.link_index, 4u);
    EXPECT_GE(spec.start, 0);
    EXPECT_GT(spec.duration, 0);
  }
  EXPECT_EQ(pf.link_faults[0].kind, faults::LinkFaultKind::kDown);
  EXPECT_EQ(pf.link_faults[1].kind, faults::LinkFaultKind::kCorrupt);
  EXPECT_DOUBLE_EQ(pf.link_faults[1].loss_rate, cfg.corruption_loss_rate);
}

TEST(PlayFaults, DrawIsReproducible) {
  faults::FaultConfig cfg;
  cfg.enabled = true;
  cfg.overload_probability = 0.5;
  cfg.link_down_probability = 0.5;
  cfg.corruption_probability = 0.5;
  util::Rng a(23);
  util::Rng b(23);
  const auto pa = faults::draw_play_faults(cfg, 4, a);
  const auto pb = faults::draw_play_faults(cfg, 4, b);
  EXPECT_EQ(pa.overload_stall_until, pb.overload_stall_until);
  ASSERT_EQ(pa.link_faults.size(), pb.link_faults.size());
  for (std::size_t i = 0; i < pa.link_faults.size(); ++i) {
    EXPECT_EQ(pa.link_faults[i].link_index, pb.link_faults[i].link_index);
    EXPECT_EQ(pa.link_faults[i].start, pb.link_faults[i].start);
    EXPECT_EQ(pa.link_faults[i].duration, pb.link_faults[i].duration);
  }
}

// --- RTSP retry/backoff state machine --------------------------------------

TEST(RetryState, BackoffProgressionAndGiveUp) {
  rtsp::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = msec(500);
  policy.max_backoff = sec(8);
  policy.multiplier = 2.0;
  rtsp::RetryState state(policy);

  EXPECT_EQ(state.attempts_used(), 0);
  EXPECT_FALSE(state.exhausted());

  auto b1 = state.next_backoff();
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(*b1, msec(500));
  auto b2 = state.next_backoff();
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(*b2, msec(1000));
  // Third failure exhausts the budget: no more backoff, move down the
  // ladder.
  EXPECT_FALSE(state.next_backoff().has_value());
  EXPECT_TRUE(state.exhausted());
  EXPECT_EQ(state.attempts_used(), 3);
  // Further failures stay exhausted rather than wrapping.
  EXPECT_FALSE(state.next_backoff().has_value());
}

TEST(RetryState, BackoffCappedAtMax) {
  rtsp::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff = sec(1);
  policy.max_backoff = sec(4);
  policy.multiplier = 3.0;
  rtsp::RetryState state(policy);
  EXPECT_EQ(*state.next_backoff(), sec(1));
  EXPECT_EQ(*state.next_backoff(), sec(3));
  EXPECT_EQ(*state.next_backoff(), sec(4));  // 9s capped
  EXPECT_EQ(*state.next_backoff(), sec(4));
}

TEST(RetryState, ResetRestoresFullBudget) {
  rtsp::RetryPolicy policy;
  policy.max_attempts = 2;
  rtsp::RetryState state(policy);
  (void)state.next_backoff();
  (void)state.next_backoff();
  EXPECT_TRUE(state.exhausted());
  state.reset();
  EXPECT_FALSE(state.exhausted());
  EXPECT_EQ(state.attempts_used(), 0);
  EXPECT_TRUE(state.next_backoff().has_value());
}

TEST(RetryState, RejectsDegeneratePolicies) {
  rtsp::RetryPolicy bad;
  bad.max_attempts = 0;
  EXPECT_THROW(rtsp::RetryState{bad}, util::CheckError);
  rtsp::RetryPolicy bad2;
  bad2.initial_backoff = 0;
  EXPECT_THROW(rtsp::RetryState{bad2}, util::CheckError);
}

// --- End-to-end: faults through run_single ---------------------------------

world::UserProfile test_user(std::uint64_t seed) {
  world::UserProfile user;
  user.country = "US";
  user.us_state = "MA";
  user.region = world::Region::kUsEast;
  user.group = world::UserRegionGroup::kUsCanada;
  user.connection = world::ConnectionClass::kDslCable;
  user.pc_class = "Pentium III / 256-512MB";
  user.isp_load_lo = 0.2;
  user.isp_load_hi = 0.4;
  user.seed = seed;
  return user;
}

tracer::RealTracer quiet_tracer(const media::Catalog& catalog,
                                const world::RegionGraph& graph) {
  tracer::TracerConfig cfg;
  cfg.path.episode_probability = 0.0;
  return tracer::RealTracer(catalog, graph, cfg);
}

TEST(FaultsEndToEnd, UnreachableServerExhaustsLadderAndGivesUp) {
  study::StudyConfig study_cfg;
  const media::Catalog catalog = study::make_catalog(study_cfg);
  const world::RegionGraph graph;
  const auto tracer = quiet_tracer(catalog, graph);

  faults::PlayFaults pf;
  pf.server_unreachable = true;
  const auto rec = tracer.run_single(test_user(41), 0, 555, false, &pf);
  EXPECT_FALSE(rec.available);
  EXPECT_FALSE(rec.stats.session_established);
  EXPECT_FALSE(rec.stats.played_any_frame);
  // The full UDP → TCP → HTTP-cloak ladder ran before giving up.
  EXPECT_TRUE(rec.stats.fell_back_to_tcp);
  EXPECT_TRUE(rec.stats.fell_back_to_http);
  EXPECT_GE(rec.stats.rtsp_retries, 4);
}

TEST(FaultsEndToEnd, ShortOverloadStallDelaysButPlays) {
  study::StudyConfig study_cfg;
  const media::Catalog catalog = study::make_catalog(study_cfg);
  const world::RegionGraph graph;
  const auto tracer = quiet_tracer(catalog, graph);

  faults::PlayFaults pf;
  pf.overload_stall_until = sec(3);  // within the request timeout
  const auto rec = tracer.run_single(test_user(42), 0, 556, false, &pf);
  EXPECT_TRUE(rec.available);
  EXPECT_TRUE(rec.stats.session_established);
  EXPECT_TRUE(rec.stats.played_any_frame);
  EXPECT_EQ(rec.stats.rtsp_retries, 0);
}

TEST(FaultsEndToEnd, LongOverloadStallNeedsRetriesThenPlays) {
  study::StudyConfig study_cfg;
  const media::Catalog catalog = study::make_catalog(study_cfg);
  const world::RegionGraph graph;
  const auto tracer = quiet_tracer(catalog, graph);

  // Stall past the 10 s request timeout: the first DESCRIBE attempts die,
  // a later retry lands after the backlog clears and the session plays.
  faults::PlayFaults pf;
  pf.overload_stall_until = sec(25);
  const auto rec = tracer.run_single(test_user(43), 0, 557, false, &pf);
  EXPECT_TRUE(rec.available);
  EXPECT_TRUE(rec.stats.session_established);
  EXPECT_TRUE(rec.stats.played_any_frame);
  EXPECT_GE(rec.stats.rtsp_retries, 1);
}

TEST(FaultsEndToEnd, SinglePlayIsBitReproducibleUnderFaults) {
  study::StudyConfig study_cfg;
  const media::Catalog catalog = study::make_catalog(study_cfg);
  const world::RegionGraph graph;
  const auto tracer = quiet_tracer(catalog, graph);

  faults::PlayFaults pf;
  pf.overload_stall_until = sec(3);
  faults::LinkFaultSpec burst;
  burst.link_index = world::PlayPath::kWanCorridor;
  burst.kind = faults::LinkFaultKind::kCorrupt;
  burst.start = sec(12);
  burst.duration = sec(15);
  burst.loss_rate = 0.10;
  pf.link_faults.push_back(burst);

  const auto a = tracer.run_single(test_user(44), 0, 558, false, &pf);
  const auto b = tracer.run_single(test_user(44), 0, 558, false, &pf);
  EXPECT_EQ(a.available, b.available);
  EXPECT_EQ(a.stats.measured_fps, b.stats.measured_fps);
  EXPECT_EQ(a.stats.jitter_ms, b.stats.jitter_ms);
  EXPECT_EQ(a.stats.bytes_received, b.stats.bytes_received);
  EXPECT_EQ(a.stats.rebuffer_seconds, b.stats.rebuffer_seconds);
  EXPECT_EQ(a.stats.samples.size(), b.stats.samples.size());
}

// Campaign seed 5 with overload, link-down and corruption faults, no cross
// traffic and SACK on: in user 0's play 84 the peer closes the TCP media
// connection while the server's sender still has media to write. Re-plans
// the campaign's first chunk and runs only that task: the sender must stop
// writing to the closing connection rather than abort the play.
TEST(FaultsEndToEnd, SenderStopsWritingToAClosingTcpConnection) {
  study::StudyConfig cfg;
  cfg.seed = 5;
  cfg.tracer.path.negligible_load = 2.0;
  cfg.tracer.tcp_sack = true;
  cfg.tracer.faults.enabled = true;
  cfg.tracer.faults.seed = cfg.seed;
  cfg.tracer.faults.overload_probability = 0.05;
  cfg.tracer.faults.link_down_probability = 0.05;
  cfg.tracer.faults.corruption_probability = 0.05;
  const media::Catalog catalog = study::make_catalog(cfg);
  const world::RegionGraph graph;
  tracer::RealTracer tracer(catalog, graph, cfg.tracer);
  const std::vector<world::UserProfile> users =
      world::generate_population(cfg.population);
  tracer.plan_access_times(users);
  const tracer::StudyPlan plan = tracer.build_plan(users, cfg.seed);
  const auto task = std::find_if(
      plan.tasks.begin(), plan.tasks.end(), [](const tracer::PlayTask& t) {
        return t.user_index == 0 && t.play_index == 84;
      });
  ASSERT_NE(task, plan.tasks.end());
  ASSERT_TRUE(task->needs_sim);
  tracer::PlayContext ctx;
  tracer::TraceRecord rec;
  EXPECT_NO_THROW(rec = tracer.run_play(*task, users[0], ctx));
  EXPECT_EQ(rec.user_id, users[0].id);
}

}  // namespace
}  // namespace rv
