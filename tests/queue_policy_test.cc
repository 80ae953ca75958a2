#include <gtest/gtest.h>

#include <cstdint>

#include "net/cross_traffic.h"
#include "net/network.h"
#include "net/queue_policy.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace rv::net {
namespace {

QueueConfig red_config(std::int64_t capacity) {
  QueueConfig q;
  q.policy = QueuePolicy::kRed;
  q.capacity_bytes = capacity;
  return q;
}

TEST(Red, NoDropsBelowMinThreshold) {
  RedState red(red_config(100'000), 100'000);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_FALSE(red.should_drop(10'000, 1000));  // 10% << min_th 25%
  }
}

TEST(Red, AlwaysDropsAboveMaxThreshold) {
  RedState red(red_config(100'000), 100'000);
  // Saturate the EWMA first.
  for (int i = 0; i < 5'000; ++i) red.should_drop(90'000, 1000);
  EXPECT_GT(red.average_queue_bytes(), 75'000.0);
  int drops = 0;
  for (int i = 0; i < 100; ++i) drops += red.should_drop(90'000, 1000);
  EXPECT_EQ(drops, 100);
}

TEST(Red, ProbabilisticBetweenThresholds) {
  RedState red(red_config(100'000), 100'000);
  // Drive the average to ~50% (between 25% and 75%).
  for (int i = 0; i < 5'000; ++i) red.should_drop(50'000, 1000);
  int drops = 0;
  constexpr int n = 4'000;
  for (int i = 0; i < n; ++i) drops += red.should_drop(50'000, 1000);
  // Early-drop probability is small but clearly nonzero.
  EXPECT_GT(drops, n / 100);
  EXPECT_LT(drops, n / 2);
}

TEST(Red, AverageTracksQueueSlowly) {
  RedState red(red_config(100'000), 100'000);
  red.should_drop(80'000, 1000);
  // One sample with weight 0.002 barely moves the average.
  EXPECT_LT(red.average_queue_bytes(), 1'000.0);
}

TEST(RedLink, EarlyDropsBeforeQueueFull) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  QueueConfig q = red_config(30'000);
  Link& link = net.add_link(a, b, kbps(500), msec(5), q);
  net.compute_routes();

  // Offer 2x the link rate for 20 seconds.
  CrossTrafficConfig ct;
  ct.burst_rate = kbps(1000);
  ct.mean_on = sec(19);
  ct.mean_off = msec(1);
  CrossTrafficSource src(net, a, b, ct, util::Rng(5));
  src.start();
  sim.run_until(sec(20));

  EXPECT_GT(link.direction_from(a).stats().packets_dropped, 0u);
  EXPECT_GT(link.direction_from(a).stats().packets_sent, 100u);
  // RED keeps the standing queue below the hard limit: there is always room
  // for a burst, so the queue never plateaus at capacity for long. The
  // average occupancy at end-of-run sits near/below the max threshold.
  EXPECT_LT(link.direction_from(a).queued_bytes(), 30'000);
}

TEST(RedLink, DropTailVsRedDelayProfile) {
  // Same load through drop-tail vs RED: RED should hold a smaller standing
  // queue (less bufferbloat) at similar throughput.
  auto run = [](QueuePolicy policy) {
    sim::Simulator sim;
    Network net(sim);
    const NodeId a = net.add_node("a");
    const NodeId b = net.add_node("b");
    QueueConfig q;
    q.policy = policy;
    q.capacity_bytes = 40'000;
    Link& link = net.add_link(a, b, kbps(500), msec(5), q);
    net.compute_routes();
    CrossTrafficConfig ct;
    ct.burst_rate = kbps(620);
    ct.mean_on = sec(30);
    ct.mean_off = msec(1);
    CrossTrafficSource src(net, a, b, ct, util::Rng(5));
    src.start();
    // Sample the queue occupancy over time.
    double queue_sum = 0;
    int samples = 0;
    for (int t = 5; t <= 30; ++t) {
      sim.run_until(sec(t));
      queue_sum += static_cast<double>(link.direction_from(a).queued_bytes());
      ++samples;
    }
    return queue_sum / samples;
  };
  const double droptail_queue = run(QueuePolicy::kDropTail);
  const double red_queue = run(QueuePolicy::kRed);
  EXPECT_LT(red_queue, droptail_queue * 0.85);
}

TEST(RedLink, DefaultRemainsDropTail) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  Link& link = net.add_link(a, b, kbps(500), msec(5), 5'000);
  net.compute_routes();
  net.node(b).set_local_sink([](Packet) {});
  // Below capacity: drop-tail never early-drops.
  for (int i = 0; i < 4; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.proto = Protocol::kUdp;
    p.size_bytes = 1000;
    net.send(p);
  }
  sim.run();
  EXPECT_EQ(link.direction_from(a).stats().packets_dropped, 0u);
}

TEST(LinkQueue, OccupancyShedsOnePacketPerTransmissionStart) {
  // Directed check of queued_bytes(): 1000-byte packets at 1 Mbps serialise
  // in exactly 8 ms each. After a 4-packet burst the first transmits
  // immediately; the queue holds 3, then sheds one every 8 ms as each
  // queued packet's transmission starts.
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  QueueConfig q;
  q.capacity_bytes = 100'000;
  Link& link = net.add_link(a, b, mbps(1), msec(50), q);
  net.compute_routes();
  net.node(b).set_local_sink([](Packet) {});
  for (int i = 0; i < 4; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.proto = Protocol::kUdp;
    p.size_bytes = 1000;
    net.send(p);
  }
  LinkDirection& dir = link.direction_from(a);
  EXPECT_EQ(dir.queued_bytes(), 3000);
  sim.run_until(msec(8));  // packet 2's transmission starts exactly now
  EXPECT_EQ(dir.queued_bytes(), 2000);
  sim.run_until(msec(8) + usec(1));
  EXPECT_EQ(dir.queued_bytes(), 2000);
  sim.run_until(msec(16));
  EXPECT_EQ(dir.queued_bytes(), 1000);
  sim.run_until(msec(24));
  EXPECT_EQ(dir.queued_bytes(), 0);
  sim.run();
  EXPECT_EQ(dir.stats().packets_sent, 4u);
  EXPECT_EQ(dir.stats().packets_dropped, 0u);
}

}  // namespace
}  // namespace rv::net
