#include "net/link.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace rv::net {

LinkDirection::LinkDirection(sim::Simulator& sim, BitsPerSec rate,
                             SimTime prop_delay, const QueueConfig& queue)
    : sim_(sim),
      rate_(rate),
      prop_delay_(prop_delay),
      queue_capacity_bytes_(queue.capacity_bytes),
      done_timer_(sim.add_timer(
          [](void* self) {
            static_cast<LinkDirection*>(self)->transmission_done();
          },
          this)) {
  RV_CHECK_GT(rate, 0.0);
  RV_CHECK_GE(prop_delay, 0);
  RV_CHECK_GT(queue.capacity_bytes, 0);
  if (queue.policy == QueuePolicy::kRed) {
    red_ = std::make_unique<RedState>(queue, queue.capacity_bytes);
  }
}

LinkDirection::~LinkDirection() { sim_.remove_timer(done_timer_); }

void LinkDirection::send(std::unique_ptr<Packet> packet) {
  if (admit(*packet)) {
    const std::int32_t bytes = packet->size_bytes;
    enqueue({std::move(packet), bytes});
  }
  check_invariants();
}

void LinkDirection::send_background(const Packet& shape) {
  if (admit(shape)) enqueue({nullptr, shape.size_bytes});
  check_invariants();
}

bool LinkDirection::admit(const Packet& packet) {
  RV_CHECK_GT(packet.size_bytes, 0);
  ++offered_;
  obs::count(obs::Counter::kPacketsEnqueued);
  if (fault_ != nullptr && fault_(packet, sim_.now())) {
    ++stats_.packets_faulted;
    ++stats_.packets_dropped;
    obs::count(obs::Counter::kPacketsCorrupted);
    return false;
  }
  if (!busy()) return true;
  // RED drops probabilistically before the queue is full; drop-tail (and
  // RED's hard limit) drop on overflow.
  const std::int64_t occupancy = queued_bytes_;
  if ((red_ != nullptr && red_->should_drop(occupancy, packet.size_bytes)) ||
      occupancy + packet.size_bytes > queue_capacity_bytes_) {
    ++stats_.packets_dropped;
    obs::count(obs::Counter::kPacketsDropped);
    return false;
  }
  return true;
}

void LinkDirection::enqueue(Entry entry) {
  if (!busy()) {
    start_transmission(std::move(entry));
    return;
  }
  queued_bytes_ += entry.bytes;
  queue_.push_back(std::move(entry));
  if (!done_armed_) arm_done();
}

void LinkDirection::start_transmission(Entry entry) {
  const SimTime tx = transmission_time(entry.bytes, rate_);
  stats_.busy_time += tx;
  ++stats_.packets_sent;
  stats_.bytes_sent += static_cast<std::uint64_t>(entry.bytes);
  // The jitter hook draws for background load too, so its RNG stream does
  // not depend on which entries are delivered.
  const SimTime extra =
      jitter_ ? std::max<SimTime>(0, jitter_(sim_.now())) : 0;
  // Delivery happens tx + propagation later; the transmitter frees after tx.
  // The packet's owning pointer moves into the event's inline storage — no
  // allocation, no packet copy.
  if (entry.packet) {
    sim_.schedule_in(tx + prop_delay_ + extra,
                     [this, p = std::move(entry.packet)]() mutable {
                       if (deliver_) deliver_(std::move(p));
                     });
  }
  done_at_ = sim_.now() + tx;
  done_seq_ = sim_.reserve_seq();
  done_armed_ = false;
  if (!queue_.empty()) arm_done();
}

void LinkDirection::arm_done() {
  RV_DCHECK(!done_armed_);
  done_armed_ = true;
  sim_.arm_timer(done_timer_, done_at_, done_seq_);
}

void LinkDirection::transmission_done() {
  // Armed only with an entry waiting, and nothing leaves the queue before
  // its done fires.
  RV_DCHECK(!queue_.empty());
  Entry next = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= next.bytes;
  RV_CHECK_GE(queued_bytes_, 0);
  start_transmission(std::move(next));
  check_invariants();
}

void LinkDirection::check_invariants() const {
  RV_DCHECK(queue_.empty() || done_armed_)
      << "entries wait behind a transmitter whose done event is not armed";
  RV_DCHECK(queued_bytes_ == [this] {
    std::int64_t sum = 0;
    for (const Entry& e : queue_) sum += e.bytes;
    return sum;
  }()) << "queued_bytes_ " << queued_bytes_ << " is not the queue's sum";
  RV_DCHECK(offered_ - stats_.packets_dropped ==
            stats_.packets_sent + queue_.size())
      << "admissions minus drops is not sent plus queued";
}

LinkDirection& Link::direction_from(NodeId from) {
  RV_CHECK(from == a_ || from == b_);
  return from == a_ ? a_to_b_ : b_to_a_;
}

const LinkDirection& Link::direction_from(NodeId from) const {
  RV_CHECK(from == a_ || from == b_);
  return from == a_ ? a_to_b_ : b_to_a_;
}

NodeId Link::peer_of(NodeId n) const {
  RV_CHECK(n == a_ || n == b_);
  return n == a_ ? b_ : a_;
}

double Link::max_queue_fill() const {
  const auto fill = [](const LinkDirection& d) {
    const auto cap = d.queue_capacity_bytes();
    if (cap <= 0) return 0.0;
    return static_cast<double>(d.queued_bytes()) / static_cast<double>(cap);
  };
  return std::max(fill(a_to_b_), fill(b_to_a_));
}

std::uint64_t Link::total_dropped() const {
  return a_to_b_.stats().packets_dropped + b_to_a_.stats().packets_dropped;
}

}  // namespace rv::net
