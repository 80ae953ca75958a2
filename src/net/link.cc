#include "net/link.h"

#include <algorithm>
#include <utility>

#include "net/cross_traffic.h"
#include "obs/trace.h"
#include "util/check.h"

namespace rv::net {

LinkDirection::LinkDirection(sim::Simulator& sim, BitsPerSec rate,
                             SimTime prop_delay, const QueueConfig& queue)
    : sim_(sim),
      rate_(rate),
      prop_delay_(prop_delay),
      queue_capacity_bytes_(queue.capacity_bytes),
      timer_(sim.add_timer(
          [](void* self) {
            auto* dir = static_cast<LinkDirection*>(self);
            dir->armed_ = false;
            dir->catch_up();
            dir->rearm();
          },
          this,
          [](void* self) { static_cast<LinkDirection*>(self)->catch_up(); })) {
  RV_CHECK_GT(rate, 0.0);
  RV_CHECK_GE(prop_delay, 0);
  RV_CHECK_GT(queue.capacity_bytes, 0);
  if (queue.policy == QueuePolicy::kRed) {
    red_ = std::make_unique<RedState>(queue, queue.capacity_bytes);
  }
}

LinkDirection::~LinkDirection() { sim_.remove_timer(timer_); }

void LinkDirection::send(std::unique_ptr<Packet> packet) {
  catch_up();
  const sim::Key& now = sim_.position();
  const bool busy = busy_at(now);
  if (admit(*packet, now.at(), busy)) {
    const std::int32_t bytes = packet->size_bytes;
    if (bytes != tx_bytes_) {
      tx_bytes_ = bytes;
      tx_ = transmission_time(bytes, rate_);
    }
    enqueue({std::move(packet), bytes, tx_}, now, busy);
  }
  find_next();
  rearm();
  check_invariants();
}

void LinkDirection::send_background(const Packet& shape) {
  catch_up();
  const sim::Key& now = sim_.position();
  const bool busy = busy_at(now);
  if (admit(shape, now.at(), busy)) {
    enqueue({nullptr, shape.size_bytes,
             transmission_time(shape.size_bytes, rate_)},
            now, busy);
  }
  find_next();
  rearm();
  check_invariants();
}

void LinkDirection::attach(CrossTrafficSource& source) {
  catch_up();
  arrivals_.push_back(
      {sim_.virtual_key(source.next_at(), sim_.position()), &source});
  find_next();
  rearm();
}

void LinkDirection::detach(CrossTrafficSource& source) {
  catch_up();
  std::erase_if(arrivals_,
                [&source](const Arrival& a) { return a.source == &source; });
  find_next();
  rearm();
}

void LinkDirection::set_fault_filter(FaultFilter filter) {
  catch_up();
  fault_ = std::move(filter);
  rearm();
}

void LinkDirection::set_delay_jitter(DelayJitter jitter) {
  catch_up();
  jitter_ = std::move(jitter);
  rearm();
}

void LinkDirection::find_next() {
  next_arrival_ = nullptr;
  next_ = queue_.empty() ? sim::kNever : done_;
  for (Arrival& arrival : arrivals_) {
    if (arrival.key < next_) {
      next_ = arrival.key;
      next_arrival_ = &arrival;
    }
  }
}

void LinkDirection::catch_up_passed() {
  const sim::Key& now = sim_.position();
  RV_DCHECK(!(now < cursor_)) << "the background cursor moved backward";
  RV_DCHECK(!armed_ || now < armed_at_)
      << "the kernel passed the direction's armed timer";
  cursor_ = now;
  do {
    if (next_arrival_ == nullptr) {
      transmission_done();
    } else {
      arrival(*next_arrival_);
    }
    find_next();
  } while (!(now < next_));
  log_ = sim_.log_end();
  check_invariants();
}

void LinkDirection::arrival(Arrival& arrival) {
  CrossTrafficSource& source = *arrival.source;
  const sim::Key at = arrival.key;
  const bool busy = busy_at(at);
  if (source.step() && admit(source.shape_, at.at(), busy)) {
    enqueue({nullptr, source.shape_.size_bytes, source.tx_}, at, busy);
  }
  // Decided after the transmit-done the arrival may have started, as the
  // scheduled emitter did.
  arrival.key = sim_.virtual_key(source.next_at(), at, log_);
}

bool LinkDirection::admit(const Packet& packet, SimTime now, bool busy) {
  RV_CHECK_GT(packet.size_bytes, 0);
  ++offered_;
  obs::count(obs::Counter::kPacketsEnqueued);
  if (fault_ != nullptr && fault_(packet, now)) {
    ++stats_.packets_faulted;
    ++stats_.packets_dropped;
    obs::count(obs::Counter::kPacketsCorrupted);
    return false;
  }
  if (!busy) return true;
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

void LinkDirection::enqueue(Entry entry, const sim::Key& at, bool busy) {
  if (!busy) {
    start_transmission(std::move(entry), at);
    return;
  }
  if (entry.packet) packet_starts_.push_back(done_.at() + queued_tx_);
  queued_bytes_ += entry.bytes;
  queued_tx_ += entry.tx;
  queue_.push_back(std::move(entry));
}

void LinkDirection::start_transmission(Entry entry, const sim::Key& at) {
  const SimTime tx = entry.tx;
  stats_.busy_time += tx;
  ++stats_.packets_sent;
  stats_.bytes_sent += static_cast<std::uint64_t>(entry.bytes);
  // The jitter hook draws for background load too, so its RNG stream does
  // not depend on which entries are delivered.
  const SimTime extra =
      jitter_ ? std::max<SimTime>(0, jitter_(at.at())) : 0;
  // Delivery happens tx + propagation later; the transmitter frees after tx.
  // The packet's owning pointer moves into the event's inline storage — no
  // allocation, no packet copy. Only an event in real time starts a packet.
  if (entry.packet) {
    RV_DCHECK(at == sim_.position())
        << "a packet started behind the kernel's position";
    sim_.schedule_in(tx + prop_delay_ + extra,
                     [this, p = std::move(entry.packet)]() mutable {
                       if (deliver_) deliver_(std::move(p));
                     });
  }
  done_ = sim_.virtual_key(at.at() + tx, at, log_);
}

void LinkDirection::transmission_done() {
  const sim::Key at = done_;
  Entry next = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= next.bytes;
  queued_tx_ -= next.tx;
  RV_CHECK_GE(queued_bytes_, 0);
  if (next.packet) {
    RV_DCHECK(packet_starts_.front() == at.at())
        << "a packet started off its computed start time";
    packet_starts_.pop_front();
  }
  start_transmission(std::move(next), at);
}

void LinkDirection::rearm() {
  // With a hook installed every event is real time. Otherwise only the
  // transmit-done that starts a waiting packet is: the timer is armed at
  // it once it is decided, and before that at the first place at the
  // packet's start time, where the catch-up decides it.
  sim::Key want = sim::kNever;
  if (hooked()) {
    want = next_;
  } else if (!packet_starts_.empty()) {
    want = queue_.front().packet != nullptr
               ? done_
               : sim::Simulator::first_at(packet_starts_.front());
  }
  if (armed_ && !(want == armed_at_)) {
    sim_.disarm_timer(timer_);
    armed_ = false;
  }
  if (!armed_ && !(want == sim::kNever)) {
    armed_at_ = want;
    sim_.arm_timer(timer_, armed_at_);
    armed_ = true;
  }
  RV_DCHECK(packet_starts_.empty() || armed_)
      << "a packet waits behind a transmitter whose done event is not armed";
}

void LinkDirection::check_invariants() const {
  RV_DCHECK(queued_bytes_ == [this] {
    std::int64_t sum = 0;
    for (const Entry& e : queue_) sum += e.bytes;
    return sum;
  }()) << "queued_bytes_ " << queued_bytes_ << " is not the queue's sum";
  RV_DCHECK(packet_starts_.size() == static_cast<std::size_t>(std::count_if(
                queue_.begin(), queue_.end(),
                [](const Entry& e) { return e.packet != nullptr; })))
      << "packet start times do not match the queued packets";
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

double Link::max_queue_fill() {
  const auto fill = [](LinkDirection& d) {
    const auto cap = d.queue_capacity_bytes();
    if (cap <= 0) return 0.0;
    return static_cast<double>(d.queued_bytes()) / static_cast<double>(cap);
  };
  return std::max(fill(a_to_b_), fill(b_to_a_));
}

std::uint64_t Link::total_dropped() {
  return a_to_b_.stats().packets_dropped + b_to_a_.stats().packets_dropped;
}

}  // namespace rv::net
