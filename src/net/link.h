// Full-duplex point-to-point links with drop-tail queues.
//
// Each direction serialises packets at the link rate, holds at most
// `queue_capacity_bytes` of backlog, and delivers after the propagation
// delay. Overflowing packets are dropped (the only loss source in the
// simulator, as in a real router). Background load (cross traffic) shares
// the queue and the transmitter with packets but is never delivered.
//
// Background load costs no kernel event. A direction pulls the arrivals of
// its cross-traffic sources itself, and keeps a background cursor: before
// anything touches the direction (a send, its own lane timer, a read of
// its state, the end of a run) it catches up on every arrival and every
// transmit-done the kernel has passed, each at its virtual key (see
// sim::Key), so they happen in the order scheduled events would have.
// Only an event that must happen in real time takes a kernel event, on the
// direction's one lane timer: the transmit-done that starts a waiting
// packet (it schedules the delivery, which takes a seq), first armed at the
// first place at the packet's start time, where catching up decides the
// done's key; and every event while a fault filter or delay-jitter hook is
// installed (they draw from random streams other directions and packets
// share).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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

class CrossTrafficSource;

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

  // Background load shaped like `shape`, now: admitted exactly as send()
  // would admit that packet (same counters, fault filter, RED and
  // drop-tail checks, same delay-jitter draw), then it takes queue bytes
  // and transmitter time but is never delivered, so it allocates no packet
  // and schedules no delivery event.
  void send_background(const Packet& shape);

  // Cross-traffic sources whose arrivals this direction pulls, from their
  // first arrival on (CrossTrafficSource::start and its destructor).
  void attach(CrossTrafficSource& source);
  void detach(CrossTrafficSource& source);

  // Called with each packet after serialisation + propagation.
  void set_deliver(std::function<void(std::unique_ptr<Packet>)> deliver) {
    deliver_ = std::move(deliver);
  }

  // Fault-injection hook, consulted before queueing/transmission.
  void set_fault_filter(FaultFilter filter);

  // Delay-jitter hook, consulted once per packet (background load
  // included) at transmission start.
  void set_delay_jitter(DelayJitter jitter);

  BitsPerSec rate() const { return rate_; }
  SimTime prop_delay() const { return prop_delay_; }
  std::int64_t queue_capacity_bytes() const { return queue_capacity_bytes_; }
  // The readers catch the direction up first, so they see its state at
  // the kernel's position.
  // Bytes waiting behind the transmitting packet.
  std::int64_t queued_bytes() {
    catch_up();
    return queued_bytes_;
  }
  const LinkStats& stats() {
    catch_up();
    return stats_;
  }
  // Computes every background arrival and transmit-done the kernel has
  // passed, in key order.
  void catch_up() {
    if (sim_.passed(next_)) catch_up_passed();
  }

 private:
  // A queued transmission; a null `packet` is background load.
  struct Entry {
    std::unique_ptr<Packet> packet;
    std::int32_t bytes = 0;
    SimTime tx = 0;  // serialisation time
  };

  void catch_up_passed();
  // The admission checks shared by packets and background load at `now`,
  // with the transmitter `busy` or not; false means the entry was dropped
  // (and counted).
  bool admit(const Packet& packet, SimTime now, bool busy);
  void enqueue(Entry entry, const sim::Key& at, bool busy);
  void start_transmission(Entry entry, const sim::Key& at);
  // An attached source and the key of its next event.
  struct Arrival {
    sim::Key key;
    CrossTrafficSource* source;
  };
  // The pending transmit-done, at done_, and the next event of `arrival`.
  void transmission_done();
  void arrival(Arrival& arrival);
  // Points next_ (and next_arrival_) at the first pending event.
  void find_next();
  // Points the lane timer at the event that must happen in real time, if
  // any, disarming it when none must.
  void rearm();
  // The transmitter is busy until the current transmission's done key.
  bool busy_at(const sim::Key& at) const { return at < done_; }
  bool hooked() const { return fault_ != nullptr || jitter_ != nullptr; }
  // Debug-build checks of the queue accounting.
  void check_invariants() const;

  sim::Simulator& sim_;
  BitsPerSec rate_;
  SimTime prop_delay_;
  std::int64_t queue_capacity_bytes_;
  std::unique_ptr<RedState> red_;  // null for drop-tail
  std::deque<Entry> queue_;
  std::int64_t queued_bytes_ = 0;
  SimTime queued_tx_ = 0;  // serialisation time of the queued entries
  // When each queued packet starts transmission, in queue order: the
  // transmitter is busy from now until then, whatever arrives behind.
  std::deque<SimTime> packet_starts_;
  // The current transmission's transmit-done. It is an event only while
  // the queue holds an entry for it to start; with the queue empty its
  // only effect would be to free the transmitter, which busy_at() reads
  // off the key instead.
  sim::Key done_;
  std::vector<Arrival> arrivals_;
  // The first pending event: done_ (next_arrival_ null) or
  // *next_arrival_, or sim::kNever when there is none.
  sim::Key next_ = sim::kNever;
  Arrival* next_arrival_ = nullptr;
  // The background cursor: the position of the last catch-up that
  // computed events, which never moves backward, and how far catch-ups
  // read the kernel's log.
  sim::Key cursor_;
  sim::Simulator::LogCursor log_;
  sim::TimerId timer_;
  bool armed_ = false;
  sim::Key armed_at_;
  // The last foreground size and its serialisation time.
  std::int32_t tx_bytes_ = 0;
  SimTime tx_ = 0;
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

  // Telemetry probes (sampled by telemetry::PlaySampler); like the
  // directions' readers, they catch both directions up first.
  // Queue-fill fraction of the fuller direction, in [0, 1].
  double max_queue_fill();
  // Packets dropped across both directions (overflow + RED + faults;
  // faulted packets also count as dropped in LinkStats).
  std::uint64_t total_dropped();

 private:
  NodeId a_;
  NodeId b_;
  LinkDirection a_to_b_;
  LinkDirection b_to_a_;
};

}  // namespace rv::net
