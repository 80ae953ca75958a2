// The plan/execute split: the serial planning pass must shard the campaign
// at *play* granularity (no straggler-user wall), order tasks by descending
// cost deterministically, and produce tasks whose execution in a reused
// per-worker context is indistinguishable from fresh-context execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "study/study.h"
#include "tracer/play_plan.h"
#include "tracer/real_tracer.h"
#include "world/region_graph.h"
#include "world/users.h"

namespace rv::tracer {
namespace {

world::UserProfile synthetic_user(int id, int plays) {
  world::UserProfile u;
  u.id = id;
  u.country = "US";
  u.us_state = "MA";
  u.region = world::Region::kUsEast;
  u.group = world::UserRegionGroup::kUsCanada;
  u.connection = world::ConnectionClass::kDslCable;
  u.pc_class = "Pentium III / 256-512MB";
  u.clips_to_play = plays;
  u.clips_to_rate = std::min(plays, 2);
  u.isp_load_lo = 0.2;
  u.isp_load_hi = 0.4;
  u.seed = 1000 + static_cast<std::uint64_t>(id);
  return u;
}

// A fast tracer config for tests that actually simulate sessions.
TracerConfig short_config() {
  TracerConfig cfg;
  cfg.watch_duration = sec(6);
  cfg.play_horizon = sec(30);
  return cfg;
}

class PlanFixture : public ::testing::Test {
 protected:
  PlanFixture()
      : catalog_(study::make_catalog(study::StudyConfig{})),
        tracer_(catalog_, graph_, short_config()) {}

  media::Catalog catalog_;
  world::RegionGraph graph_;
  RealTracer tracer_;
};

TEST_F(PlanFixture, PlanShardsAtPlayGranularity) {
  std::vector<world::UserProfile> users;
  users.push_back(synthetic_user(1, 5));
  users.push_back(synthetic_user(2, 3));
  auto blocked = synthetic_user(3, 4);
  blocked.rtsp_blocked = true;
  users.push_back(blocked);

  const StudyPlan plan = tracer_.build_plan(users, 2001);
  ASSERT_EQ(plan.tasks.size(), 12u);
  for (std::size_t k = 0; k < plan.tasks.size(); ++k) {
    // Record slots are user-major, play-minor — exactly the pre-split
    // per-user push_back order.
    EXPECT_EQ(plan.tasks[k].record_slot, k);
    EXPECT_LT(plan.tasks[k].user_index, users.size());
  }
  // The firewalled user's plays are final at plan time.
  for (const auto& task : plan.tasks) {
    if (task.user_index == 2) {
      EXPECT_FALSE(task.needs_sim);
      EXPECT_FALSE(task.record.available);
      EXPECT_TRUE(task.record.rtsp_blocked_user);
    }
  }

  // `order` is a permutation of all tasks, cost-descending with index
  // tie-break (a pure function of the plan).
  ASSERT_EQ(plan.order.size(), plan.tasks.size());
  std::vector<std::uint32_t> sorted(plan.order);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t k = 0; k < sorted.size(); ++k) EXPECT_EQ(sorted[k], k);
  for (std::size_t k = 1; k < plan.order.size(); ++k) {
    const auto& prev = plan.tasks[plan.order[k - 1]];
    const auto& cur = plan.tasks[plan.order[k]];
    EXPECT_TRUE(prev.est_cost > cur.est_cost ||
                (prev.est_cost == cur.est_cost &&
                 plan.order[k - 1] < plan.order[k]));
  }
}

TEST_F(PlanFixture, HeavyTailedPopulationHasBoundedTaskGranularity) {
  // The paper's Fig 5 shape in miniature: one power user dwarfing everyone.
  // Under per-user sharding the power user alone would be ~83% of the total
  // and bound the parallel tail; after the per-play split no single
  // schedulable unit may exceed its fair 1/plays share of the total cost.
  std::vector<world::UserProfile> users;
  users.push_back(synthetic_user(1, 40));
  for (int id = 2; id <= 9; ++id) users.push_back(synthetic_user(id, 1));

  const StudyPlan plan = tracer_.build_plan(users, 7);
  ASSERT_EQ(plan.tasks.size(), 48u);
  ASSERT_GT(plan.sim_tasks, 40u);  // a few plays may be drawn unavailable
  ASSERT_GT(plan.total_cost, 0.0);

  double max_cost = 0.0;
  double power_user_cost = 0.0;
  for (const auto& task : plan.tasks) {
    max_cost = std::max(max_cost, task.est_cost);
    if (task.user_index == 0) power_user_cost += task.est_cost;
  }
  // The straggler-user wall the split removes...
  EXPECT_GT(power_user_cost, 0.5 * plan.total_cost);
  // ...and the granularity bound that removes it (1.5x covers cheap
  // unavailable plays shrinking the denominator's average).
  EXPECT_LE(max_cost,
            1.5 * plan.total_cost / static_cast<double>(plan.sim_tasks));
}

TEST_F(PlanFixture, ReusedContextMatchesFreshContexts) {
  // The whole context-reuse optimisation must be invisible in the records:
  // executing a user's tasks through one warm PlayContext (simulator
  // reused play after play) has to produce exactly
  // what per-play fresh contexts produce.
  const auto user = synthetic_user(5, 4);
  StudyPlan plan;
  tracer_.plan_user(user, 99, 0, plan);
  ASSERT_EQ(plan.tasks.size(), 4u);

  PlayContext warm;
  for (const auto& task : plan.tasks) {
    const TraceRecord reused = tracer_.run_play(task, user, warm);
    PlayContext fresh;
    const TraceRecord once = tracer_.run_play(task, user, fresh);
    EXPECT_EQ(reused.clip_id, once.clip_id);
    EXPECT_EQ(reused.available, once.available);
    EXPECT_EQ(reused.rating, once.rating);
    EXPECT_EQ(reused.stats.protocol, once.stats.protocol);
    EXPECT_EQ(reused.stats.measured_fps, once.stats.measured_fps);
    EXPECT_EQ(reused.stats.measured_bandwidth, once.stats.measured_bandwidth);
    EXPECT_EQ(reused.stats.jitter_ms, once.stats.jitter_ms);
    EXPECT_EQ(reused.stats.bytes_received, once.stats.bytes_received);
    EXPECT_EQ(reused.stats.packets_received, once.stats.packets_received);
    EXPECT_EQ(reused.stats.rebuffer_events, once.stats.rebuffer_events);
    EXPECT_EQ(reused.stats.preroll_seconds, once.stats.preroll_seconds);
    EXPECT_EQ(reused.stats.samples.size(), once.stats.samples.size());
  }

  // A second pass over the same plays, through the now fully warm context,
  // must still produce identical records.
  for (const auto& task : plan.tasks) {
    const TraceRecord again = tracer_.run_play(task, user, warm);
    PlayContext fresh;
    const TraceRecord once = tracer_.run_play(task, user, fresh);
    EXPECT_EQ(again.stats.bytes_received, once.stats.bytes_received);
    EXPECT_EQ(again.stats.measured_fps, once.stats.measured_fps);
  }
}

TEST_F(PlanFixture, ReusedContextMatchesFreshContextsWithFaults) {
  // Same invariance through the fault-injection paths (overload stalls,
  // link faults, the mechanistic outage blackhole).
  TracerConfig cfg = short_config();
  cfg.faults.enabled = true;
  cfg.faults.seed = 11;
  cfg.faults.mechanistic_unavailability = true;
  cfg.faults.overload_probability = 0.3;
  cfg.faults.link_down_probability = 0.3;
  cfg.faults.corruption_probability = 0.3;
  RealTracer tracer(catalog_, graph_, cfg);

  const auto user = synthetic_user(6, 4);
  StudyPlan plan;
  tracer.plan_user(user, 42, 0, plan);

  PlayContext warm;
  for (const auto& task : plan.tasks) {
    const TraceRecord reused = tracer.run_play(task, user, warm);
    PlayContext fresh;
    const TraceRecord once = tracer.run_play(task, user, fresh);
    EXPECT_EQ(reused.available, once.available);
    EXPECT_EQ(reused.rating, once.rating);
    EXPECT_EQ(reused.stats.measured_fps, once.stats.measured_fps);
    EXPECT_EQ(reused.stats.jitter_ms, once.stats.jitter_ms);
    EXPECT_EQ(reused.stats.bytes_received, once.stats.bytes_received);
    EXPECT_EQ(reused.stats.rtsp_retries, once.stats.rtsp_retries);
    EXPECT_EQ(reused.stats.fell_back_to_tcp, once.stats.fell_back_to_tcp);
    EXPECT_EQ(reused.stats.fell_back_to_http, once.stats.fell_back_to_http);
  }
}

TEST_F(PlanFixture, RunUserEqualsPlanPlusExecute) {
  const auto user = synthetic_user(8, 3);
  const auto via_run_user = tracer_.run_user(user, 77);

  StudyPlan plan;
  tracer_.plan_user(user, 77, 0, plan);
  finalize_order(plan);
  ASSERT_EQ(plan.tasks.size(), via_run_user.size());
  // Execute in schedule order into preassigned slots, as the study does.
  std::vector<TraceRecord> records(plan.tasks.size());
  PlayContext ctx;
  for (const auto k : plan.order) {
    records[plan.tasks[k].record_slot] =
        tracer_.run_play(plan.tasks[k], user, ctx);
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].clip_id, via_run_user[i].clip_id);
    EXPECT_EQ(records[i].available, via_run_user[i].available);
    EXPECT_EQ(records[i].rating, via_run_user[i].rating);
    EXPECT_EQ(records[i].stats.measured_fps,
              via_run_user[i].stats.measured_fps);
    EXPECT_EQ(records[i].stats.bytes_received,
              via_run_user[i].stats.bytes_received);
    EXPECT_EQ(records[i].stats.jitter_ms, via_run_user[i].stats.jitter_ms);
  }
}

}  // namespace
}  // namespace rv::tracer
