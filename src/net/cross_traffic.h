// Background cross-traffic: exponential on/off UDP packet trains between two
// adjacent nodes, loading the shared link so foreground flows see realistic
// queueing delay and loss.
//
// During an ON burst the source emits fixed-size packets at `burst_rate`;
// burst and idle durations are exponentially distributed. The long-run
// offered load is burst_rate * mean_on / (mean_on + mean_off).
//
// The packets are background load on the src -> dst link direction
// (LinkDirection::send_background): they queue, serialise, count in
// LinkStats and can be dropped exactly like packets, but nothing is ever
// delivered to dst, whose sink would only have discarded them. The source
// drives itself with one timer on the simulator's timer lane, armed at the
// key a scheduled event would have taken, so its arrivals take no heap
// entry, slot or closure.
#pragma once

#include <cstdint>

#include "net/network.h"
#include "util/rng.h"
#include "util/units.h"

namespace rv::net {

struct CrossTrafficConfig {
  BitsPerSec burst_rate = 0;      // send rate while ON
  SimTime mean_on = msec(500);    // mean burst duration
  SimTime mean_off = msec(500);   // mean idle duration
  std::int32_t packet_bytes = 1000;
};

class CrossTrafficSource {
 public:
  // Traffic flows src -> dst, loading the one link between them.
  CrossTrafficSource(Network& network, NodeId src, NodeId dst,
                     const CrossTrafficConfig& config, util::Rng rng);
  ~CrossTrafficSource();
  // Registered with the simulator's timer lane under its address; the
  // simulator must outlive it.
  CrossTrafficSource(const CrossTrafficSource&) = delete;
  CrossTrafficSource& operator=(const CrossTrafficSource&) = delete;

  // Starts the on/off process; runs until the simulation ends. src and dst
  // must be joined by exactly one link (RV_CHECK).
  void start();

  std::uint64_t packets_emitted() const { return packets_emitted_; }

 private:
  void begin_burst();
  void emit_packet();
  // Arms the source's lane timer `delay` from now, taking the seq a
  // schedule_in call would take here.
  void arm_in(SimTime delay);

  Network& network_;
  NodeId src_;
  NodeId dst_;
  LinkDirection* out_ = nullptr;  // src -> dst, resolved in start()
  Packet shape_;                  // what every emitted packet looks like
  CrossTrafficConfig config_;
  util::Rng rng_;
  // The source's one pending event, its next arrival or burst start, is a
  // lane timer; bursting_ says which of the two it fires.
  sim::TimerId timer_;
  bool bursting_ = false;
  SimTime burst_end_ = 0;
  std::uint64_t packets_emitted_ = 0;
};

}  // namespace rv::net
