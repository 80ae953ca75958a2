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
      mean_on_us_(to_seconds(config.mean_on) * 1e6),
      mean_off_us_(to_seconds(config.mean_off) * 1e6),
      gap_(transmission_time(config.packet_bytes, config.burst_rate)),
      max_jitter_(0.2 * static_cast<double>(gap_)),
      rng_(std::move(rng)) {
  RV_CHECK_GT(config.packet_bytes, 0);
  shape_.src = src;
  shape_.dst = dst;
  shape_.proto = Protocol::kUdp;
  shape_.size_bytes = config.packet_bytes;
}

CrossTrafficSource::~CrossTrafficSource() {
  if (out_ != nullptr) out_->detach(*this);
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
  tx_ = transmission_time(config_.packet_bytes, out_->rate());
  // Start at a random point in the idle period so sources don't synchronise.
  next_at_ = network_.simulator().now() +
             static_cast<SimTime>(rng_.exponential(mean_off_us_));
  out_->attach(*this);
}

std::uint64_t CrossTrafficSource::packets_emitted() {
  if (out_ != nullptr) out_->catch_up();
  return packets_emitted_;
}

}  // namespace rv::net
