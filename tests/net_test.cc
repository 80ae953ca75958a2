#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/cross_traffic.h"
#include "net/network.h"
#include "net/packet.h"
#include "net/queue_policy.h"
#include "sim/simulator.h"
#include "transport/mux.h"
#include "transport/tcp.h"
#include "util/check.h"
#include "util/rng.h"

namespace rv::net {
namespace {

Packet make_packet(NodeId src, NodeId dst, std::int32_t bytes) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.proto = Protocol::kUdp;
  p.size_bytes = bytes;
  return p;
}

TEST(Network, DeliversAcrossOneLink) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, mbps(1), msec(10));
  net.compute_routes();

  std::vector<SimTime> deliveries;
  net.node(b).set_local_sink([&](Packet) { deliveries.push_back(sim.now()); });
  net.send(make_packet(a, b, 1000));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  // 1000 B at 1 Mbps = 8 ms serialisation + 10 ms propagation.
  EXPECT_EQ(deliveries[0], msec(18));
}

TEST(Network, SerialisesBackToBackPackets) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, mbps(1), msec(0), 1 << 20);
  net.compute_routes();

  std::vector<SimTime> deliveries;
  net.node(b).set_local_sink([&](Packet) { deliveries.push_back(sim.now()); });
  net.send(make_packet(a, b, 1000));
  net.send(make_packet(a, b, 1000));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], msec(8));
  EXPECT_EQ(deliveries[1], msec(16));  // queued behind the first
}

TEST(Network, RoutesAcrossMultipleHops) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId r1 = net.add_node("r1");
  const NodeId r2 = net.add_node("r2");
  const NodeId b = net.add_node("b");
  net.add_link(a, r1, mbps(10), msec(5));
  net.add_link(r1, r2, mbps(10), msec(20));
  net.add_link(r2, b, mbps(10), msec(5));
  net.compute_routes();

  bool delivered = false;
  net.node(b).set_local_sink([&](Packet p) {
    delivered = true;
    EXPECT_EQ(p.src, a);
  });
  net.send(make_packet(a, b, 500));
  sim.run();
  EXPECT_TRUE(delivered);
  // 3 hops: 3 serialisations (0.4 ms each) + 30 ms propagation.
  EXPECT_EQ(sim.now(), 3 * 400 + msec(30));
}

TEST(Network, PicksShortestPath) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId fast = net.add_node("fast");
  const NodeId slow = net.add_node("slow");
  const NodeId b = net.add_node("b");
  net.add_link(a, fast, mbps(10), msec(5));
  net.add_link(fast, b, mbps(10), msec(5));
  net.add_link(a, slow, mbps(10), msec(100));
  net.add_link(slow, b, mbps(10), msec(100));
  net.compute_routes();

  bool delivered = false;
  net.node(b).set_local_sink([&](Packet) { delivered = true; });
  net.send(make_packet(a, b, 100));
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_LT(sim.now(), msec(20));  // took the fast path
}

TEST(Network, DropsOnQueueOverflow) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  // Tiny queue: capacity ~2 packets beyond the one in transmission.
  Link& link = net.add_link(a, b, kbps(64), msec(1), 2000);
  net.compute_routes();

  int delivered = 0;
  net.node(b).set_local_sink([&](Packet) { ++delivered; });
  for (int i = 0; i < 10; ++i) net.send(make_packet(a, b, 1000));
  sim.run();
  EXPECT_EQ(delivered, 3);  // 1 transmitting + 2 queued
  EXPECT_EQ(link.direction_from(a).stats().packets_dropped, 7u);
}

TEST(Network, NoRouteCountsDrop) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId island = net.add_node("island");
  net.add_link(a, b, mbps(1), msec(1));
  net.compute_routes();
  net.send(make_packet(a, island, 100));
  sim.run();
  EXPECT_EQ(net.node(a).no_route_drops(), 1u);
}

TEST(Network, UnboundSinkCountsDrop) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, mbps(1), msec(1));
  net.compute_routes();
  net.send(make_packet(a, b, 100));
  sim.run();
  EXPECT_EQ(net.node(b).sink_drops(), 1u);
}

TEST(Network, LinkStatsAccumulate) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  Link& link = net.add_link(a, b, mbps(1), msec(1), 1 << 20);
  net.compute_routes();
  net.node(b).set_local_sink([](Packet) {});
  net.send(make_packet(a, b, 1000));
  net.send(make_packet(a, b, 500));
  sim.run();
  EXPECT_EQ(link.direction_from(a).stats().packets_sent, 2u);
  EXPECT_EQ(link.direction_from(a).stats().bytes_sent, 1500u);
  EXPECT_EQ(link.direction_from(a).stats().busy_time, msec(12));
}

TEST(Link, PeerAndDirection) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  Link& link = net.add_link(a, b, mbps(1), msec(1));
  EXPECT_EQ(link.peer_of(a), b);
  EXPECT_EQ(link.peer_of(b), a);
  EXPECT_EQ(&link.direction_from(a), &link.direction_from(a));
  EXPECT_NE(&link.direction_from(a), &link.direction_from(b));
}

TEST(CrossTraffic, GeneratesApproximateLoad) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  Link& link = net.add_link(a, b, mbps(10), msec(1), 1 << 20);
  net.compute_routes();

  CrossTrafficConfig cfg;
  cfg.burst_rate = mbps(4);  // 50% duty below → ~2 Mbps long-run offered load
  cfg.mean_on = msec(200);
  cfg.mean_off = msec(200);
  CrossTrafficSource src(net, a, b, cfg, util::Rng(77));
  src.start();
  sim.run_until(sec(30));

  const double achieved_bps =
      static_cast<double>(link.direction_from(a).stats().bytes_sent) * 8.0 /
      30.0;
  EXPECT_NEAR(achieved_bps, mbps(2), mbps(2) * 0.35);
}

TEST(CrossTraffic, ZeroRateIsSilent) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, mbps(10), msec(1));
  net.compute_routes();
  CrossTrafficConfig cfg;
  cfg.burst_rate = 0;
  CrossTrafficSource src(net, a, b, cfg, util::Rng(1));
  src.start();
  sim.run_until(sec(5));
  EXPECT_EQ(src.packets_emitted(), 0u);
}

TEST(CrossTraffic, CongestsSharedQueue) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  Link& link = net.add_link(a, b, kbps(500), msec(5), 16'000);
  net.compute_routes();

  CrossTrafficConfig cfg;
  cfg.burst_rate = kbps(1500);  // 3x oversubscription while ON
  cfg.mean_on = msec(1000);
  cfg.mean_off = msec(200);
  CrossTrafficSource src(net, a, b, cfg, util::Rng(99));
  src.start();
  sim.run_until(sec(20));
  EXPECT_GT(link.direction_from(a).stats().packets_dropped, 0u);
}

TEST(CrossTraffic, StartRequiresExactlyOneLinkBetweenTheNodes) {
  // Background load serialises on the src -> dst link alone, so a source
  // between non-adjacent (or doubly linked) nodes is rejected outright.
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId r = net.add_node("r");
  const NodeId b = net.add_node("b");
  net.add_link(a, r, mbps(10), msec(1));
  net.add_link(r, b, mbps(10), msec(1));
  net.add_link(r, b, mbps(10), msec(1));
  net.compute_routes();
  CrossTrafficConfig cfg;
  cfg.burst_rate = mbps(1);
  CrossTrafficSource two_hops(net, a, b, cfg, util::Rng(1));
  EXPECT_THROW(two_hops.start(), util::CheckError);
  CrossTrafficSource parallel(net, r, b, cfg, util::Rng(1));
  EXPECT_THROW(parallel.start(), util::CheckError);
  CrossTrafficSource adjacent(net, a, r, cfg, util::Rng(1));
  EXPECT_NO_THROW(adjacent.start());
}

// The cross-traffic emitter as it was before background load: the same
// on/off process (exponential ON periods), but every packet is a real
// Packet routed by Network::send and delivered to dst's sink. It is the
// reference CrossTrafficSource must match.
class PacketCrossTraffic {
 public:
  PacketCrossTraffic(Network& network, NodeId src, NodeId dst,
                     const CrossTrafficConfig& config, util::Rng rng)
      : network_(network),
        src_(src),
        dst_(dst),
        config_(config),
        rng_(std::move(rng)) {}

  void start() {
    const auto first_delay = static_cast<SimTime>(
        rng_.exponential(to_seconds(config_.mean_off) * 1e6));
    network_.simulator().schedule_in(first_delay, [this] { begin_burst(); });
  }

 private:
  void begin_burst() {
    const double mean_usec = to_seconds(config_.mean_on) * 1e6;
    burst_end_ = network_.simulator().now() +
                 static_cast<SimTime>(rng_.exponential(mean_usec));
    emit_packet();
  }

  void emit_packet() {
    auto& sim = network_.simulator();
    if (sim.now() >= burst_end_) {
      const auto off_usec = static_cast<SimTime>(
          rng_.exponential(to_seconds(config_.mean_off) * 1e6));
      sim.schedule_in(off_usec, [this] { begin_burst(); });
      return;
    }
    network_.send(make_packet(src_, dst_, config_.packet_bytes));
    const SimTime gap =
        transmission_time(config_.packet_bytes, config_.burst_rate);
    const auto jitter = static_cast<SimTime>(
        rng_.uniform(0.0, 0.2 * static_cast<double>(gap)));
    sim.schedule_in(gap + jitter, [this] { emit_packet(); });
  }

  Network& network_;
  NodeId src_;
  NodeId dst_;
  CrossTrafficConfig config_;
  util::Rng rng_;
  SimTime burst_end_ = 0;
};

struct NoMeta : PayloadMeta {};

struct SharedBottleneckOutcome {
  transport::TcpStats client;
  transport::TcpStats server;
  std::vector<LinkStats> directions;  // a->b then b->a, for every link
  // Every TCP packet delivered off a link: (time, receiving node, source).
  std::vector<std::tuple<SimTime, NodeId, NodeId>> foreground;
  std::uint64_t foreground_on_bottleneck = 0;  // TCP packets sent ra -> rb
  std::uint64_t cross_delivered = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_pending = 0;
};

constexpr int kBulkChunks = 200;
constexpr std::int64_t kBulkChunkBytes = 1400;

// A TCP bulk transfer client -> ra -> rb -> server whose ra -> rb
// bottleneck also carries cross traffic from `Cross`, with a corruption
// fault filter and a delay-jitter hook (each drawing its own RNG) on that
// loaded direction.
template <typename Cross>
SharedBottleneckOutcome run_shared_bottleneck(QueuePolicy policy) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId client = net.add_node("client");
  const NodeId ra = net.add_node("ra");
  const NodeId rb = net.add_node("rb");
  const NodeId server = net.add_node("server");
  net.add_link(client, ra, mbps(100), msec(1));
  QueueConfig queue;
  queue.policy = policy;
  queue.capacity_bytes = 24'000;
  Link& bottleneck = net.add_link(ra, rb, mbps(1), msec(20), queue);
  net.add_link(rb, server, mbps(100), msec(1));
  net.compute_routes();

  LinkDirection& loaded = bottleneck.direction_from(ra);
  auto fault_rng = std::make_shared<util::Rng>(31);
  loaded.set_fault_filter([fault_rng](const Packet&, SimTime) {
    return fault_rng->bernoulli(0.01);
  });
  auto jitter_rng = std::make_shared<util::Rng>(32);
  loaded.set_delay_jitter([jitter_rng](SimTime) {
    return static_cast<SimTime>(jitter_rng->uniform(0.0, 2000.0));
  });

  SharedBottleneckOutcome out;
  net.set_delivery_tap([&](const Packet& p, NodeId at, SimTime when) {
    if (p.proto != Protocol::kTcp) {
      ++out.cross_delivered;
      return;
    }
    out.foreground.emplace_back(when, at, p.src);
    if (at == rb && p.src == client) ++out.foreground_on_bottleneck;
  });

  CrossTrafficConfig ct;
  ct.burst_rate = kbps(900);
  ct.mean_on = msec(300);
  ct.mean_off = msec(300);
  Cross cross(net, ra, rb, ct, util::Rng(7));
  cross.start();

  transport::TransportMux client_mux(net, client);
  transport::TransportMux server_mux(net, server);
  const transport::TcpConfig cfg;
  std::unique_ptr<transport::TcpConnection> accepted;
  transport::TcpListener listener(
      server_mux, 80, cfg,
      [&](std::unique_ptr<transport::TcpConnection> c) {
        accepted = std::move(c);
      });
  transport::TcpConnection conn(client_mux, cfg);
  conn.set_on_established([&] {
    for (int i = 0; i < kBulkChunks; ++i) {
      conn.send_chunk(kBulkChunkBytes, std::make_shared<NoMeta>());
    }
  });
  conn.connect({server, 80});
  sim.run_until(sec(60));

  out.client = conn.stats();
  if (accepted != nullptr) out.server = accepted->stats();
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    Link& link = net.link(i);
    out.directions.push_back(link.direction_from(link.a()).stats());
    out.directions.push_back(link.direction_from(link.b()).stats());
  }
  out.events_executed = sim.events_executed();
  out.events_pending = sim.pending_events();
  return out;
}

void expect_same_tcp(const transport::TcpStats& a,
                     const transport::TcpStats& b) {
  EXPECT_EQ(a.segments_sent, b.segments_sent);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.fast_retransmits, b.fast_retransmits);
  EXPECT_EQ(a.bytes_acked, b.bytes_acked);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
  EXPECT_EQ(a.chunks_delivered, b.chunks_delivered);
  EXPECT_EQ(a.recovery_enters, b.recovery_enters);
}

TEST(CrossTraffic, BackgroundLoadMatchesDeliveredPackets) {
  for (const QueuePolicy policy : {QueuePolicy::kDropTail, QueuePolicy::kRed}) {
    SCOPED_TRACE(policy == QueuePolicy::kRed ? "red" : "drop-tail");
    const auto ref = run_shared_bottleneck<PacketCrossTraffic>(policy);
    const auto now = run_shared_bottleneck<CrossTrafficSource>(policy);

    expect_same_tcp(ref.client, now.client);
    expect_same_tcp(ref.server, now.server);
    ASSERT_EQ(ref.directions.size(), now.directions.size());
    for (std::size_t i = 0; i < ref.directions.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(ref.directions[i].packets_sent, now.directions[i].packets_sent);
      EXPECT_EQ(ref.directions[i].packets_dropped,
                now.directions[i].packets_dropped);
      EXPECT_EQ(ref.directions[i].packets_faulted,
                now.directions[i].packets_faulted);
      EXPECT_EQ(ref.directions[i].bytes_sent, now.directions[i].bytes_sent);
      EXPECT_EQ(ref.directions[i].busy_time, now.directions[i].busy_time);
    }
    EXPECT_EQ(ref.foreground, now.foreground);

    // The scenario exercises what it claims: the transfer completed through
    // a bottleneck that both overflowed and corrupted packets.
    EXPECT_EQ(now.server.bytes_delivered,
              static_cast<std::uint64_t>(kBulkChunks * kBulkChunkBytes));
    const LinkStats& loaded = now.directions[2];  // ra -> rb
    EXPECT_GT(loaded.packets_faulted, 0u);
    EXPECT_GT(loaded.packets_dropped, loaded.packets_faulted);

    // Background load is never delivered. Each cross packet the bottleneck
    // transmitted cost the reference exactly one delivery event: executed
    // by the horizon if it was delivered, still pending otherwise.
    EXPECT_EQ(now.cross_delivered, 0u);
    EXPECT_GT(ref.cross_delivered, 0u);
    EXPECT_EQ(ref.events_executed - now.events_executed, ref.cross_delivered);
    const std::uint64_t cross_transmitted =
        loaded.packets_sent - now.foreground_on_bottleneck;
    EXPECT_EQ((ref.events_executed + ref.events_pending) -
                  (now.events_executed + now.events_pending),
              cross_transmitted);
  }
}

// LinkDirection's transmitter as it was before reserved transmit-done
// events: every transmission schedules its done event, and busy_ is a flag
// that event clears. It is the reference the current LinkDirection must
// match event for event. It also counts same-microsecond ties between an
// arrival and a transmission end, on both sides of the done event.
class AlwaysScheduledLink {
 public:
  AlwaysScheduledLink(sim::Simulator& sim, BitsPerSec rate,
                      SimTime prop_delay, const QueueConfig& queue)
      : sim_(sim),
        rate_(rate),
        prop_delay_(prop_delay),
        queue_capacity_bytes_(queue.capacity_bytes) {
    if (queue.policy == QueuePolicy::kRed) {
      red_ = std::make_unique<RedState>(queue, queue.capacity_bytes);
    }
  }

  void send(std::unique_ptr<Packet> packet) {
    if (!admit(*packet)) return;
    const std::int32_t bytes = packet->size_bytes;
    enqueue({std::move(packet), bytes});
  }
  void send_background(const Packet& shape) {
    if (!admit(shape)) return;
    enqueue({nullptr, shape.size_bytes});
  }
  void set_deliver(std::function<void(std::unique_ptr<Packet>)> deliver) {
    deliver_ = std::move(deliver);
  }
  void set_fault_filter(FaultFilter filter) { fault_ = std::move(filter); }
  void set_delay_jitter(DelayJitter jitter) { jitter_ = std::move(jitter); }
  std::int64_t queued_bytes() const { return queued_bytes_; }
  const LinkStats& stats() const { return stats_; }

  std::uint64_t arrivals_before_done = 0;  // at the done's time, still busy
  std::uint64_t arrivals_after_done = 0;   // at the time a done just fired

 private:
  struct Entry {
    std::unique_ptr<Packet> packet;
    std::int32_t bytes = 0;
  };

  bool admit(const Packet& packet) {
    if (busy_ && done_at_ == sim_.now()) ++arrivals_before_done;
    if (last_done_ == sim_.now()) ++arrivals_after_done;
    if (fault_ != nullptr && fault_(packet, sim_.now())) {
      ++stats_.packets_faulted;
      ++stats_.packets_dropped;
      return false;
    }
    if (!busy_) return true;
    const std::int64_t occupancy = queued_bytes_;
    if ((red_ != nullptr && red_->should_drop(occupancy, packet.size_bytes)) ||
        occupancy + packet.size_bytes > queue_capacity_bytes_) {
      ++stats_.packets_dropped;
      return false;
    }
    return true;
  }
  void enqueue(Entry entry) {
    if (!busy_) {
      start_transmission(std::move(entry));
      return;
    }
    queued_bytes_ += entry.bytes;
    queue_.push_back(std::move(entry));
  }
  void start_transmission(Entry entry) {
    busy_ = true;
    const SimTime tx = transmission_time(entry.bytes, rate_);
    stats_.busy_time += tx;
    ++stats_.packets_sent;
    stats_.bytes_sent += static_cast<std::uint64_t>(entry.bytes);
    const SimTime extra =
        jitter_ ? std::max<SimTime>(0, jitter_(sim_.now())) : 0;
    if (entry.packet) {
      sim_.schedule_in(tx + prop_delay_ + extra,
                       [this, p = std::move(entry.packet)]() mutable {
                         if (deliver_) deliver_(std::move(p));
                       });
    }
    done_at_ = sim_.now() + tx;
    sim_.schedule_in(tx, [this] { transmission_done(); });
  }
  void transmission_done() {
    busy_ = false;
    last_done_ = sim_.now();
    if (queue_.empty()) return;
    Entry next = std::move(queue_.front());
    queue_.pop_front();
    queued_bytes_ -= next.bytes;
    start_transmission(std::move(next));
  }

  sim::Simulator& sim_;
  BitsPerSec rate_;
  SimTime prop_delay_;
  std::int64_t queue_capacity_bytes_;
  std::unique_ptr<RedState> red_;
  std::deque<Entry> queue_;
  std::int64_t queued_bytes_ = 0;
  bool busy_ = false;
  SimTime done_at_ = -1;
  SimTime last_done_ = -1;
  std::function<void(std::unique_ptr<Packet>)> deliver_;
  FaultFilter fault_;
  DelayJitter jitter_;
  LinkStats stats_;
};

struct TwoHopOutcome {
  // Every delivery: (time, hop that delivered it, packet id), in order.
  std::vector<std::tuple<SimTime, int, std::uint64_t>> deliveries;
  // Both hops' queued bytes after every arrival.
  std::vector<std::pair<std::int64_t, std::int64_t>> queued;
  std::vector<LinkStats> stats;
  std::uint64_t fault_draws = 0;
  std::uint64_t jitter_draws = 0;
  std::uint64_t events_executed = 0;
  // Same-microsecond ties (counted by the reference only).
  std::uint64_t arrivals_before_done = 0;
  std::uint64_t arrivals_after_done = 0;
};

// Two link directions in series, hop 0 at 8 Mbit/s feeding hop 1 at
// 6 Mbit/s. `hooked` gives each a fault filter and a delay-jitter hook
// drawing their own RNGs, so every transmit-done is a real-time event;
// without them a done that only starts background load is computed when
// the hop is next touched. Two self-rescheduling arrival chains put
// 1000-byte packets (tx = 1000 us on hop 0) on a 500 us grid, mixed with
// other sizes and background load on both hops, so arrivals tie with
// transmission ends at equal microseconds on both sides of the done. After
// a run_until, a burst is sent from outside any event before the rest runs.
template <typename Dir>
TwoHopOutcome run_two_hops(QueuePolicy policy, std::uint64_t seed,
                           bool hooked) {
  sim::Simulator sim;
  QueueConfig queue;
  queue.policy = policy;
  queue.capacity_bytes = 6000;
  queue.red_weight = 0.05;  // reacts within one overload phase
  Dir hop0(sim, mbps(8), usec(300), queue);
  Dir hop1(sim, mbps(6), usec(700), queue);
  TwoHopOutcome out;

  util::Rng fault_rng(seed + 1);
  util::Rng jitter_rng(seed + 2);
  for (Dir* hop : {&hop0, &hop1}) {
    if (!hooked) break;
    hop->set_fault_filter([&](const Packet&, SimTime) {
      ++out.fault_draws;
      return fault_rng.bernoulli(0.02);
    });
    hop->set_delay_jitter([&](SimTime) {
      ++out.jitter_draws;
      return static_cast<SimTime>(jitter_rng.uniform_int(0, 2) * 500);
    });
  }
  hop0.set_deliver([&](std::unique_ptr<Packet> p) {
    out.deliveries.emplace_back(sim.now(), 0, p->tcp.seq);
    hop1.send(std::move(p));
  });
  hop1.set_deliver([&](std::unique_ptr<Packet> p) {
    out.deliveries.emplace_back(sim.now(), 1, p->tcp.seq);
  });

  util::Rng script(seed);
  std::uint64_t next_id = 0;
  const auto arrive = [&] {
    const std::int32_t sizes[] = {1000, 1000, 1000, 500, 1500};
    const std::int32_t bytes = sizes[script.uniform_int(0, 4)];
    const std::int64_t kind = script.uniform_int(0, 3);
    if (kind == 3) {
      hop1.send_background(make_packet(0, 1, bytes));
    } else if (kind == 2) {
      hop0.send_background(make_packet(0, 1, bytes));
    } else {
      auto p = std::make_unique<Packet>(make_packet(0, 1, bytes));
      p->tcp.seq = next_id++;
      hop0.send(std::move(p));
    }
    out.queued.emplace_back(hop0.queued_bytes(), hop1.queued_bytes());
  };
  std::function<void()> chain = [&] {
    arrive();
    // Alternate 100 ms of overload with 100 ms of light load, so the hops
    // both overflow and go idle.
    const SimTime gaps[] = {0, 500, 1000, 1000, 2000, 3000, 4000, 6000};
    const bool overload = (sim.now() / msec(100)) % 2 == 1;
    sim.schedule_in(gaps[script.uniform_int(overload ? 0 : 3,
                                            overload ? 3 : 7)],
                    chain);
  };
  for (int k = 0; k < 2; ++k) sim.schedule_at(k * 1000, chain);

  sim.run_until(msec(400));
  for (int i = 0; i < 8; ++i) arrive();
  sim.run_until(msec(800));
  out.stats = {hop0.stats(), hop1.stats()};
  out.events_executed = sim.events_executed();
  if constexpr (std::is_same_v<Dir, AlwaysScheduledLink>) {
    for (const Dir* hop : {&hop0, &hop1}) {
      out.arrivals_before_done += hop->arrivals_before_done;
      out.arrivals_after_done += hop->arrivals_after_done;
    }
  }
  return out;
}

TEST(LinkDifferential, ReservedDoneMatchesAlwaysScheduledTransmitter) {
  for (const bool hooked : {true, false}) {
  for (const QueuePolicy policy : {QueuePolicy::kDropTail, QueuePolicy::kRed}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(hooked ? "hooked" : "lazy");
      SCOPED_TRACE(policy == QueuePolicy::kRed ? "red" : "drop-tail");
      SCOPED_TRACE(seed);
      const auto ref =
          run_two_hops<AlwaysScheduledLink>(policy, seed, hooked);
      const auto now = run_two_hops<LinkDirection>(policy, seed, hooked);

      EXPECT_EQ(ref.deliveries, now.deliveries);
      EXPECT_EQ(ref.queued, now.queued);
      ASSERT_EQ(ref.stats.size(), now.stats.size());
      for (std::size_t i = 0; i < ref.stats.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(ref.stats[i].packets_sent, now.stats[i].packets_sent);
        EXPECT_EQ(ref.stats[i].packets_dropped, now.stats[i].packets_dropped);
        EXPECT_EQ(ref.stats[i].packets_faulted, now.stats[i].packets_faulted);
        EXPECT_EQ(ref.stats[i].bytes_sent, now.stats[i].bytes_sent);
        EXPECT_EQ(ref.stats[i].busy_time, now.stats[i].busy_time);
      }
      EXPECT_EQ(ref.fault_draws, now.fault_draws);
      EXPECT_EQ(ref.jitter_draws, now.jitter_draws);

      // The scenario exercises what it claims: overflow (and, hooked,
      // fault) drops on both hops, and fewer events for the same
      // deliveries.
      for (const LinkStats& hop : now.stats) {
        EXPECT_EQ(hop.packets_faulted > 0, hooked);
        EXPECT_GT(hop.packets_dropped, hop.packets_faulted);
      }
      EXPECT_GT(now.deliveries.size(), 500u);
      EXPECT_GT(ref.arrivals_before_done, 0u);
      EXPECT_GT(ref.arrivals_after_done, 0u);
      EXPECT_LT(now.events_executed, ref.events_executed);
    }
  }
  }
}

// CrossTrafficSource as it was before its link pulled its arrivals: the
// same on/off process and draws, but every arrival and burst start is a
// heap event scheduled with schedule_in that puts background load on the
// link in real time. It is the reference the lazy source must match. It
// also records its arrival times, so the test can count ties.
class HeapCrossTraffic {
 public:
  HeapCrossTraffic(Network& network, NodeId src, NodeId dst,
                   const CrossTrafficConfig& config, util::Rng rng)
      : network_(network),
        src_(src),
        dst_(dst),
        config_(config),
        rng_(std::move(rng)) {
    shape_.src = src;
    shape_.dst = dst;
    shape_.proto = Protocol::kUdp;
    shape_.size_bytes = config.packet_bytes;
  }

  void start() {
    if (config_.burst_rate <= 0.0) return;
    for (std::size_t i = 0; i < network_.link_count(); ++i) {
      Link& link = network_.link(i);
      if ((link.a() == src_ && link.b() == dst_) ||
          (link.a() == dst_ && link.b() == src_)) {
        out_ = &link.direction_from(src_);
      }
    }
    const auto first_delay = static_cast<SimTime>(
        rng_.exponential(to_seconds(config_.mean_off) * 1e6));
    network_.simulator().schedule_in(first_delay, [this] { begin_burst(); });
  }

  std::uint64_t packets_emitted() const { return packets_emitted_; }
  const std::vector<SimTime>& arrivals() const { return arrivals_; }
  std::uint64_t done_ties() const { return done_ties_; }

 private:
  void begin_burst() {
    auto& sim = network_.simulator();
    const auto on_usec = static_cast<SimTime>(
        rng_.exponential(to_seconds(config_.mean_on) * 1e6));
    burst_end_ = sim.now() + on_usec;
    emit_packet();
  }

  void emit_packet() {
    auto& sim = network_.simulator();
    if (sim.now() >= burst_end_) {
      const auto off_usec = static_cast<SimTime>(
          rng_.exponential(to_seconds(config_.mean_off) * 1e6));
      sim.schedule_in(off_usec, [this] { begin_burst(); });
      return;
    }
    // An arrival exactly one serialisation after the last one ties with
    // that packet's transmit-done when it went straight on the wire.
    if (!arrivals_.empty() &&
        sim.now() - arrivals_.back() ==
            transmission_time(config_.packet_bytes, out_->rate())) {
      ++done_ties_;
    }
    out_->send_background(shape_);
    ++packets_emitted_;
    arrivals_.push_back(sim.now());
    const SimTime gap =
        transmission_time(config_.packet_bytes, config_.burst_rate);
    const auto jitter = static_cast<SimTime>(
        rng_.uniform(0.0, 0.2 * static_cast<double>(gap)));
    sim.schedule_in(gap + jitter, [this] { emit_packet(); });
  }

  Network& network_;
  NodeId src_;
  NodeId dst_;
  LinkDirection* out_ = nullptr;
  Packet shape_;
  CrossTrafficConfig config_;
  util::Rng rng_;
  SimTime burst_end_ = 0;
  std::uint64_t packets_emitted_ = 0;
  std::vector<SimTime> arrivals_;
  std::uint64_t done_ties_ = 0;
};

struct EmitterOutcome {
  // Every foreground delivery: (time, receiving node, packet id), in order.
  std::vector<std::tuple<SimTime, NodeId, std::uint64_t>> deliveries;
  // What a sampler read every kSamplePeriod, recorded whenever it changed:
  // (time, r -> b's queued bytes, packets sent, packets dropped and busy
  // time, the r-b link's fuller-direction fill, a -> r's queued bytes and
  // packets sent).
  std::vector<std::tuple<SimTime, std::int64_t, std::uint64_t, std::uint64_t,
                         SimTime, double, std::int64_t, std::uint64_t>>
      samples;
  std::vector<LinkStats> directions;  // a->b then b->a, for every link
  std::vector<std::uint64_t> emitted;
  std::uint64_t fault_draws = 0;
  std::uint64_t jitter_draws = 0;
  std::uint64_t events_executed = 0;
  // Counted by the reference only: arrivals at a sample's microsecond,
  // arrivals at the microsecond of the same source's last transmit-done,
  // and foreground sends at the microsecond of an a -> r arrival or of the
  // end of a foreground transmission on a -> r.
  std::uint64_t arrival_sample_ties = 0;
  std::uint64_t arrival_done_ties = 0;
  std::uint64_t send_arrival_ties = 0;
  std::uint64_t send_done_ties = 0;
};

constexpr SimTime kSamplePeriod = 10;
constexpr SimTime kAccessDelay = msec(1);

// Foreground packets a -> r -> b over an r -> b bottleneck that two cross
// sources load, with a third source on the reverse direction and two on
// a -> r. The last bursts at a -> r's own rate in 20 us packets, so a
// quarter of its arrivals (those with no jitter) land in the microsecond
// its previous packet's transmission ends, and foreground sends on a
// 100 us grid land on its arrivals and on transmission ends. A sampler
// reads both loaded directions every 10 us, tying with arrivals and
// transmit-dones at equal microseconds. A stop() ends the first run early,
// and after a run_until a burst is sent from outside any event before the
// rest runs.
//
// `hooked` puts a fault filter on both directions of the r-b link, drawing
// one shared RNG inside a corruption window, and a delay-jitter hook on
// r -> b, so every event of those two directions is real time; a -> r
// stays lazy. Unhooked, every direction is lazy. The reference drives its
// sources with heap events and makes every direction real time: it gives
// each direction the hooks lack a delay-jitter hook that adds nothing and
// draws nothing.
template <typename Cross>
EmitterOutcome run_emitters(QueuePolicy policy, std::uint64_t seed,
                            bool hooked) {
  constexpr bool kReference = std::is_same_v<Cross, HeapCrossTraffic>;
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node("a");
  const NodeId r = net.add_node("r");
  const NodeId b = net.add_node("b");
  QueueConfig queue;
  queue.policy = policy;
  queue.capacity_bytes = 20'000;
  queue.red_weight = 0.05;
  Link& access = net.add_link(a, r, mbps(20), kAccessDelay, queue);
  Link& bottleneck = net.add_link(r, b, mbps(4), msec(5), queue);
  net.compute_routes();
  net.node(b).set_local_sink([](Packet) {});

  EmitterOutcome out;
  LinkDirection& uplink = access.direction_from(a);
  LinkDirection& loaded = bottleneck.direction_from(r);
  util::Rng fault_rng(seed + 1);
  util::Rng jitter_rng(seed + 2);
  if (hooked) {
    const auto corrupt = [&](const Packet&, SimTime now) {
      if (now < msec(200) || now >= msec(900)) return false;
      ++out.fault_draws;
      return fault_rng.bernoulli(0.08);
    };
    loaded.set_fault_filter(corrupt);
    bottleneck.direction_from(b).set_fault_filter(corrupt);
    loaded.set_delay_jitter([&](SimTime) {
      ++out.jitter_draws;
      return static_cast<SimTime>(jitter_rng.uniform_int(0, 3) * 250);
    });
  }
  if constexpr (kReference) {
    const auto nothing = [](SimTime) { return SimTime{0}; };
    access.direction_from(a).set_delay_jitter(nothing);
    access.direction_from(r).set_delay_jitter(nothing);
    if (!hooked) loaded.set_delay_jitter(nothing);
    bottleneck.direction_from(b).set_delay_jitter(nothing);
  }
  std::vector<SimTime> sends;
  std::vector<SimTime> uplink_ends;  // a -> r transmission ends, foreground
  net.set_delivery_tap([&](const Packet& p, NodeId at, SimTime when) {
    out.deliveries.emplace_back(when, at, p.tcp.seq);
    if (at == r) uplink_ends.push_back(when - kAccessDelay);
  });

  const auto config = [](BitsPerSec rate, SimTime on, SimTime off,
                         std::int32_t bytes) {
    CrossTrafficConfig c;
    c.burst_rate = rate;
    c.mean_on = on;
    c.mean_off = off;
    c.packet_bytes = bytes;
    return c;
  };
  std::deque<Cross> sources;
  sources.emplace_back(net, r, b, config(mbps(3), msec(20), msec(30), 1000),
                       util::Rng(seed + 10));
  sources.emplace_back(net, r, b, config(mbps(2), msec(10), msec(40), 500),
                       util::Rng(seed + 11));
  sources.emplace_back(net, b, r, config(mbps(2), msec(30), msec(30), 800),
                       util::Rng(seed + 12));
  sources.emplace_back(net, a, r, config(mbps(10), msec(20), msec(20), 1000),
                       util::Rng(seed + 13));
  sources.emplace_back(net, a, r, config(mbps(20), msec(2), msec(10), 50),
                       util::Rng(seed + 14));
  for (Cross& source : sources) source.start();

  util::Rng script(seed);
  std::uint64_t next_id = 0;
  const auto send = [&] {
    Packet p = make_packet(a, b, script.uniform_int(0, 1) == 0 ? 1200 : 400);
    p.tcp.seq = next_id++;
    sends.push_back(sim.now());
    net.send(std::move(p));
  };
  std::function<void()> chain = [&] {
    send();
    const SimTime gaps[] = {0, 100, 300, 500, 1000, 2000};
    sim.schedule_in(gaps[script.uniform_int(0, 5)], chain);
  };
  sim.schedule_at(0, chain);
  std::function<void()> sample = [&] {
    // Copies, each read first on its direction: a stats() read must see the
    // direction caught up by itself.
    const LinkStats st = loaded.stats();
    const LinkStats up = uplink.stats();
    auto row = std::make_tuple(
        sim.now(), loaded.queued_bytes(), st.packets_sent,
        st.packets_dropped, st.busy_time, bottleneck.max_queue_fill(),
        uplink.queued_bytes(), up.packets_sent);
    if (out.samples.empty() ||
        std::get<1>(out.samples.back()) != std::get<1>(row) ||
        std::get<2>(out.samples.back()) != std::get<2>(row) ||
        std::get<3>(out.samples.back()) != std::get<3>(row) ||
        std::get<6>(out.samples.back()) != std::get<6>(row) ||
        std::get<7>(out.samples.back()) != std::get<7>(row)) {
      out.samples.push_back(row);
    }
    sim.schedule_in(kSamplePeriod, sample);
  };
  sim.schedule_at(0, sample);
  sim.schedule_at(msec(350), [&] { sim.stop(); });

  sim.run_until(msec(700));
  EXPECT_EQ(sim.now(), msec(350));
  sim.run_until(msec(700));
  for (int i = 0; i < 5; ++i) send();
  sim.run_until(msec(1500));

  for (std::size_t i = 0; i < net.link_count(); ++i) {
    Link& link = net.link(i);
    out.directions.push_back(link.direction_from(link.a()).stats());
    out.directions.push_back(link.direction_from(link.b()).stats());
  }
  for (Cross& source : sources) out.emitted.push_back(source.packets_emitted());
  if constexpr (kReference) {
    for (const Cross& source : sources) {
      for (const SimTime t : source.arrivals()) {
        out.arrival_sample_ties += t % kSamplePeriod == 0 ? 1 : 0;
      }
      out.arrival_done_ties += source.done_ties();
    }
    const auto& arrivals = sources.back().arrivals();  // the a -> r source
    std::sort(uplink_ends.begin(), uplink_ends.end());
    for (const SimTime t : sends) {
      out.send_arrival_ties +=
          std::binary_search(arrivals.begin(), arrivals.end(), t) ? 1 : 0;
      out.send_done_ties +=
          std::binary_search(uplink_ends.begin(), uplink_ends.end(), t) ? 1
                                                                        : 0;
    }
  }
  out.events_executed = sim.events_executed();
  return out;
}

TEST(LinkDifferential, LazyBackgroundMatchesHeapScheduledEmitter) {
  for (const bool hooked : {false, true}) {
    for (const QueuePolicy policy :
         {QueuePolicy::kDropTail, QueuePolicy::kRed}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(hooked ? "hooked" : "lazy");
        SCOPED_TRACE(policy == QueuePolicy::kRed ? "red" : "drop-tail");
        SCOPED_TRACE(seed);
        const auto ref = run_emitters<HeapCrossTraffic>(policy, seed, hooked);
        const auto now =
            run_emitters<CrossTrafficSource>(policy, seed, hooked);

        EXPECT_EQ(ref.deliveries, now.deliveries);
        EXPECT_EQ(ref.samples, now.samples);
        ASSERT_EQ(ref.directions.size(), now.directions.size());
        for (std::size_t i = 0; i < ref.directions.size(); ++i) {
          SCOPED_TRACE(i);
          EXPECT_EQ(ref.directions[i].packets_sent,
                    now.directions[i].packets_sent);
          EXPECT_EQ(ref.directions[i].packets_dropped,
                    now.directions[i].packets_dropped);
          EXPECT_EQ(ref.directions[i].packets_faulted,
                    now.directions[i].packets_faulted);
          EXPECT_EQ(ref.directions[i].bytes_sent,
                    now.directions[i].bytes_sent);
          EXPECT_EQ(ref.directions[i].busy_time, now.directions[i].busy_time);
        }
        EXPECT_EQ(ref.emitted, now.emitted);
        EXPECT_EQ(ref.fault_draws, now.fault_draws);
        EXPECT_EQ(ref.jitter_draws, now.jitter_draws);
        // Background arrivals and the dones that start only background
        // load take no kernel event.
        EXPECT_LT(now.events_executed, ref.events_executed);

        // The scenario exercises what it claims: every source emitted, the
        // loaded direction overflowed (and, hooked, corrupted packets),
        // foreground packets got through, and arrivals and transmission
        // ends tied with samples and foreground sends.
        for (const std::uint64_t n : now.emitted) EXPECT_GT(n, 0u);
        const LinkStats& hot = now.directions[2];  // r -> b
        EXPECT_EQ(hot.packets_faulted > 0, hooked);
        EXPECT_EQ(now.directions[3].packets_faulted > 0, hooked);  // b -> r
        EXPECT_GT(hot.packets_dropped, hot.packets_faulted);
        EXPECT_GT(now.directions[0].packets_dropped, 0u);  // a -> r
        EXPECT_GT(now.deliveries.size(), 500u);
        EXPECT_GT(ref.arrival_sample_ties, 50u);
        EXPECT_GT(ref.arrival_done_ties, 50u);
        EXPECT_GT(ref.send_arrival_ties, 5u);
        EXPECT_GT(ref.send_done_ties, 5u);
      }
    }
  }
}

TEST(Network, OutstandingPacketsSurviveNetworkDestruction) {
  // Tests routinely declare `Simulator sim; Network net(sim);`, destroying
  // the Network first while undelivered packets still sit in scheduled
  // delivery events. Each pending event owns its packet, so those events
  // destroy cleanly with the simulator.
  sim::Simulator sim;
  {
    Network net(sim);
    const NodeId a = net.add_node("a");
    const NodeId b = net.add_node("b");
    net.add_link(a, b, mbps(1), msec(10), 1 << 20);
    net.compute_routes();
    net.node(b).set_local_sink([](Packet) {});
    for (int i = 0; i < 10; ++i) net.send(make_packet(a, b, 1000));
    // No sim.run(): packets are mid-flight inside pending events.
  }
  EXPECT_GT(sim.pending_events(), 0u);
  // The simulator destructor releases the remaining events; reaching the end
  // of the test without a crash is the assertion.
}

}  // namespace
}  // namespace rv::net
