// Full-duplex point-to-point links with drop-tail queues.
//
// Each direction serialises packets at the link rate, holds at most
// `queue_capacity_bytes` of backlog, and delivers after the propagation
// delay. Overflowing packets are dropped (the only loss source in the
// simulator, as in a real router). Background load (cross traffic) shares
// the queue and the transmitter with packets but is never delivered.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "net/packet.h"
#include "net/queue_policy.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace rv::net {

struct LinkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_faulted = 0;  // dropped by an injected fault
  SimTime busy_time = 0;  // total serialisation time
};

// Decides whether an injected fault eats this packet *now* (link down,
// corruption burst). Returns true to drop. Installed per direction by
// faults::LinkFaultInjector; null means the link is healthy.
using FaultFilter = std::function<bool(const Packet& packet, SimTime now)>;

// Extra per-packet propagation delay (>= 0), drawn by the caller-installed
// hook at transmission time — delay jitter for the congestion-control
// robustness scenarios. Null (the default) adds exactly nothing, so the
// delivery schedule — and every pinned study byte — is unchanged. Jittered
// packets may overtake each other; that reordering is the point (spurious
// dupACKs are what break loss-based CC).
using DelayJitter = std::function<SimTime(SimTime now)>;

// One direction of a link. Owned by Link.
class LinkDirection {
 public:
  LinkDirection(sim::Simulator& sim, BitsPerSec rate, SimTime prop_delay,
                const QueueConfig& queue);
  ~LinkDirection();
  // Registered with the simulator's timer lane under its address; the
  // simulator must outlive it.
  LinkDirection(const LinkDirection&) = delete;
  LinkDirection& operator=(const LinkDirection&) = delete;

  // Accepts a packet for transmission; drops it if the queue is full. The
  // packet moves through queueing and delivery without copying.
  void send(std::unique_ptr<Packet> packet);

  // Background load shaped like `shape`: admitted exactly as send() would
  // admit that packet (same counters, fault filter, RED and drop-tail
  // checks, same delay-jitter draw), then it takes queue bytes and
  // transmitter time but is never delivered. Cross traffic's only effect on
  // the foreground is this occupancy, so it allocates no packet and
  // schedules no delivery event.
  void send_background(const Packet& shape);

  // Called with each packet after serialisation + propagation.
  void set_deliver(std::function<void(std::unique_ptr<Packet>)> deliver) {
    deliver_ = std::move(deliver);
  }

  // Fault-injection hook, consulted before queueing/transmission.
  void set_fault_filter(FaultFilter filter) { fault_ = std::move(filter); }

  // Delay-jitter hook, consulted once per packet (background load
  // included) at transmission start.
  void set_delay_jitter(DelayJitter jitter) { jitter_ = std::move(jitter); }

  BitsPerSec rate() const { return rate_; }
  SimTime prop_delay() const { return prop_delay_; }
  // Bytes waiting behind the transmitting packet.
  std::int64_t queued_bytes() const { return queued_bytes_; }
  std::int64_t queue_capacity_bytes() const { return queue_capacity_bytes_; }
  const LinkStats& stats() const { return stats_; }

 private:
  // A queued transmission; a null `packet` is background load.
  struct Entry {
    std::unique_ptr<Packet> packet;
    std::int32_t bytes = 0;
  };

  // The admission checks shared by send() and send_background(); false
  // means the entry was dropped (and counted).
  bool admit(const Packet& packet);
  void enqueue(Entry entry);
  void start_transmission(Entry entry);
  // Arms the transmit-done lane timer at its reserved key; see done_seq_.
  void arm_done();
  void transmission_done();
  // The transmitter is busy until the current transmission's done key has
  // been passed, whether or not its event was armed.
  bool busy() const { return !sim_.has_fired(done_at_, done_seq_); }
  // Debug-build checks of the queue accounting and the done event.
  void check_invariants() const;

  sim::Simulator& sim_;
  BitsPerSec rate_;
  SimTime prop_delay_;
  std::int64_t queue_capacity_bytes_;
  std::unique_ptr<RedState> red_;  // null for drop-tail
  std::deque<Entry> queue_;
  std::int64_t queued_bytes_ = 0;
  // The current transmission's transmit-done key, reserved when it starts.
  // The done is a lane timer (the direction's only event of its own), armed
  // only once an entry waits behind the transmitter: with nothing queued,
  // its only effect would be to free the transmitter, which busy() reads
  // off the key instead. Since the seq is taken where a scheduled done
  // would have taken it, no other event's key moves.
  sim::TimerId done_timer_;
  SimTime done_at_ = 0;
  std::uint64_t done_seq_ = 0;
  bool done_armed_ = false;
  std::uint64_t offered_ = 0;  // admit() calls, for check_invariants()
  std::function<void(std::unique_ptr<Packet>)> deliver_;
  FaultFilter fault_;
  DelayJitter jitter_;
  LinkStats stats_;
};

// A full-duplex link between two nodes (identified by the Network).
class Link {
 public:
  Link(sim::Simulator& sim, NodeId a, NodeId b, BitsPerSec rate,
       SimTime prop_delay, const QueueConfig& queue)
      : a_(a),
        b_(b),
        a_to_b_(sim, rate, prop_delay, queue),
        b_to_a_(sim, rate, prop_delay, queue) {}

  NodeId a() const { return a_; }
  NodeId b() const { return b_; }

  // The direction that transmits *out of* `from`.
  LinkDirection& direction_from(NodeId from);
  const LinkDirection& direction_from(NodeId from) const;
  // The node at the other end.
  NodeId peer_of(NodeId n) const;

  // Telemetry probes (read-only; sampled by telemetry::PlaySampler).
  // Queue-fill fraction of the fuller direction, in [0, 1].
  double max_queue_fill() const;
  // Packets dropped across both directions (overflow + RED + faults;
  // faulted packets also count as dropped in LinkStats).
  std::uint64_t total_dropped() const;

 private:
  NodeId a_;
  NodeId b_;
  LinkDirection a_to_b_;
  LinkDirection b_to_a_;
};

}  // namespace rv::net
