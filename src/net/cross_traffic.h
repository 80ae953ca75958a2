// Background cross-traffic: exponential on/off UDP packet trains between two
// adjacent nodes, loading the shared link so foreground flows see realistic
// queueing delay and loss.
//
// During an ON burst the source emits fixed-size packets at `burst_rate`;
// burst and idle durations are exponentially distributed. The long-run
// offered load is burst_rate * mean_on / (mean_on + mean_off).
//
// The packets are background load on the src -> dst link direction: they
// queue, serialise, count in LinkStats and can be dropped exactly like
// packets, but nothing is ever delivered to dst, whose sink would only have
// discarded them. The source is a plain arrival generator with its own Rng:
// the direction pulls its arrivals as it catches up (see net/link.h), so
// they take no kernel event at all.
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
  // Detaches from the direction, which must outlive a started source.
  ~CrossTrafficSource();
  CrossTrafficSource(const CrossTrafficSource&) = delete;
  CrossTrafficSource& operator=(const CrossTrafficSource&) = delete;

  // Starts the on/off process; runs until the simulation ends. src and dst
  // must be joined by exactly one link (RV_CHECK).
  void start();

  // Packets emitted up to the kernel's position (catches the direction up).
  std::uint64_t packets_emitted();

 private:
  friend class LinkDirection;

  // The event at next_at(), a burst start or an arrival, with the source's
  // draws in their order: returns whether it puts a packet on the link, and
  // moves next_at() to the event after it.
  bool step() {
    const SimTime now = next_at_;
    if (!bursting_) {
      bursting_ = true;
      burst_end_ = now + static_cast<SimTime>(rng_.exponential(mean_on_us_));
    }
    if (now >= burst_end_) {
      bursting_ = false;
      next_at_ = now + static_cast<SimTime>(rng_.exponential(mean_off_us_));
      return false;
    }
    ++packets_emitted_;
    // Next packet after the serialisation interval at burst_rate, jittered
    // a little so packet trains don't phase-lock with the foreground flow.
    const auto jitter = static_cast<SimTime>(rng_.uniform(0.0, max_jitter_));
    next_at_ = now + gap_ + jitter;
    return true;
  }
  SimTime next_at() const { return next_at_; }

  Network& network_;
  NodeId src_;
  NodeId dst_;
  LinkDirection* out_ = nullptr;  // src -> dst, resolved in start()
  Packet shape_;                  // what every emitted packet looks like
  CrossTrafficConfig config_;
  // The draws' parameters, from config_: the mean ON and OFF periods in
  // us, the packet interval at burst_rate and the most jitter added to it.
  double mean_on_us_;
  double mean_off_us_;
  SimTime gap_;
  double max_jitter_;
  SimTime tx_ = 0;  // a packet's serialisation time on the link
  util::Rng rng_;
  bool bursting_ = false;
  SimTime burst_end_ = 0;
  SimTime next_at_ = 0;
  std::uint64_t packets_emitted_ = 0;
};

}  // namespace rv::net
