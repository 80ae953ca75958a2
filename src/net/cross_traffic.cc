#include "net/cross_traffic.h"

#include <utility>

#include "util/check.h"

namespace rv::net {

CrossTrafficSource::CrossTrafficSource(Network& network, NodeId src,
                                       NodeId dst,
                                       const CrossTrafficConfig& config,
                                       util::Rng rng)
    : network_(network),
      src_(src),
      dst_(dst),
      config_(config),
      rng_(std::move(rng)),
      timer_(network.simulator().add_timer(
          [](void* self) {
            auto* source = static_cast<CrossTrafficSource*>(self);
            if (source->bursting_) {
              source->emit_packet();
            } else {
              source->begin_burst();
            }
          },
          this)) {
  RV_CHECK_GT(config.packet_bytes, 0);
  shape_.src = src;
  shape_.dst = dst;
  shape_.proto = Protocol::kUdp;
  shape_.size_bytes = config.packet_bytes;
}

CrossTrafficSource::~CrossTrafficSource() {
  network_.simulator().remove_timer(timer_);
}

void CrossTrafficSource::arm_in(SimTime delay) {
  auto& sim = network_.simulator();
  sim.arm_timer(timer_, sim.now() + delay, sim.reserve_seq());
}

void CrossTrafficSource::start() {
  if (config_.burst_rate <= 0.0) return;  // silent source
  std::size_t joining = 0;
  for (std::size_t i = 0; i < network_.link_count(); ++i) {
    Link& link = network_.link(i);
    if ((link.a() == src_ && link.b() == dst_) ||
        (link.a() == dst_ && link.b() == src_)) {
      out_ = &link.direction_from(src_);
      ++joining;
    }
  }
  RV_CHECK_EQ(joining, 1u)
      << "cross traffic needs exactly one link between nodes " << src_
      << " and " << dst_;
  // Start at a random point in the idle period so sources don't synchronise.
  const auto first_delay = static_cast<SimTime>(
      rng_.exponential(to_seconds(config_.mean_off) * 1e6));
  arm_in(first_delay);
}

void CrossTrafficSource::begin_burst() {
  auto& sim = network_.simulator();
  bursting_ = true;
  const auto on_usec = static_cast<SimTime>(
      rng_.exponential(to_seconds(config_.mean_on) * 1e6));
  burst_end_ = sim.now() + on_usec;
  emit_packet();
}

void CrossTrafficSource::emit_packet() {
  auto& sim = network_.simulator();
  if (sim.now() >= burst_end_) {
    const auto off_usec = static_cast<SimTime>(
        rng_.exponential(to_seconds(config_.mean_off) * 1e6));
    bursting_ = false;
    arm_in(off_usec);
    return;
  }
  out_->send_background(shape_);
  ++packets_emitted_;

  // Next packet after the serialisation interval at burst_rate, jittered a
  // little so packet trains don't phase-lock with the foreground flow.
  const SimTime gap =
      transmission_time(config_.packet_bytes, config_.burst_rate);
  const auto jitter = static_cast<SimTime>(
      rng_.uniform(0.0, 0.2 * static_cast<double>(gap)));
  arm_in(gap + jitter);
}

}  // namespace rv::net
