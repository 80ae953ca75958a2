#include "sim/simulator.h"

#include <cstring>
#include <new>
#include <utility>

#include "util/check.h"

namespace rv::sim {
namespace {

// 4-ary heap: shallower than binary (log4 vs log2 levels) and the four
// 16-byte keys of a sibling group share a cache line, which is what makes
// sift-down cheap on the timer-churn workloads that dominate the study.
// (8-ary was measured and lost: the wider scan costs more than the saved
// level.)
constexpr std::size_t kArity = 4;

}  // namespace

Simulator::~Simulator() {
  ::operator delete[](heap_, std::align_val_t{64});
  // A freed slot always holds a null EventFn (cleared on fire / cancel), so
  // with no events pending every slot destructor is a no-op and the sweep —
  // a read per slot across the whole pool — can be skipped outright. Only a
  // simulator torn down with timers still armed pays for the walk.
  if (live_ == 0) return;
  for (std::size_t i = 0; i < slot_count_; ++i) {
    slot_ref(static_cast<std::uint32_t>(i)).~Slot();
  }
}

void Simulator::heap_reserve(std::size_t cap) {
  if (cap <= heap_cap_) return;
  std::size_t ncap = heap_cap_ ? heap_cap_ : 64;
  while (ncap < cap) ncap *= 2;
  auto* nbuf = static_cast<HeapEntry*>(
      ::operator new[](ncap * sizeof(HeapEntry), std::align_val_t{64}));
  if (heap_size_ > 0) {
    std::memcpy(nbuf, heap_, heap_size_ * sizeof(HeapEntry));
  }
  ::operator delete[](heap_, std::align_val_t{64});
  heap_ = nbuf;
  heap_cap_ = ncap;
}

void Simulator::heap_push(HeapEntry entry) {
  if (__builtin_expect(heap_size_ >= heap_cap_, 0)) {
    heap_reserve(heap_size_ + 1);
  }
  // Hole-based sift-up: parents slide down into the hole; the new entry is
  // written exactly once.
  std::size_t i = heap_size_++;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

Simulator::HeapEntry Simulator::heap_pop_root() {
  const HeapEntry root = heap_[0];
  const HeapEntry last = heap_[heap_size_ - 1];
  --heap_size_;
  const std::size_t n = heap_size_;
  if (n == 0) return root;
  // Hole-based sift-down of `last` from the root.
  std::size_t i = 0;
  while (true) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    if (first_child + kArity <= n) {
      // Full sibling group: tournament min-of-4. The pair comparisons are
      // independent (better ILP than a sequential scan) and the index
      // selects compile branch-free, which matters because the winning
      // child is data-dependent and unpredictable.
      const std::size_t b0 =
          first_child + (earlier(heap_[first_child + 1], heap_[first_child])
                             ? std::size_t{1}
                             : std::size_t{0});
      const std::size_t b1 =
          first_child + 2 +
          (earlier(heap_[first_child + 3], heap_[first_child + 2])
               ? std::size_t{1}
               : std::size_t{0});
      best = earlier(heap_[b1], heap_[b0]) ? b1 : b0;
    } else {
      for (std::size_t c = first_child + 1; c < n; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
    }
    if (!earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return root;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slot_ref(slot);
  s.fn = EventFn();
  s.seq_slot = 0;
  s.live = false;
  if (++s.gen == 0) s.gen = 1;  // generation 0 is reserved for invalid ids
  if (hot_slot_ == kNilSlot) {
    hot_slot_ = slot;
  } else {
    free_slots_.push_back(slot);
  }
  --live_;
}

std::uint32_t Simulator::grow_chunk() {
  RV_CHECK_LT(slot_count_, kSlotMask) << "slot space exhausted";
  // Raw (uninitialised) chunk; slots are placement-constructed as first
  // used (in acquire_slot), so a mostly-idle simulator never touches the
  // tail.
  chunks_.emplace_back(new unsigned char[kChunkSize * sizeof(Slot)]);
  chunk0_ = chunks_.front().get();
  free_slots_.reserve(chunks_.size() * kChunkSize);
  heap_reserve(chunks_.size() * kChunkSize);
  const auto slot = static_cast<std::uint32_t>(slot_count_++);
  ::new (static_cast<void*>(&slot_ref(slot))) Slot();
  return slot;
}

EventId Simulator::schedule_at(SimTime at, EventFn&& fn) {
  RV_CHECK_GE(at, now_) << "cannot schedule into the past";
  RV_CHECK(fn != nullptr);
  RV_CHECK_LT(next_seq_, kSeqLimit) << "sequence space exhausted";
  const std::uint32_t slot = acquire_slot();
  Slot& s = slot_ref(slot);
  s.fn = std::move(fn);
  return arm_slot(at, next_seq_++, slot, s);
}

EventId Simulator::schedule_in(SimTime delay, EventFn&& fn) {
  RV_CHECK_GE(delay, 0);
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(EventId id) {
  if (id == kInvalidEventId) return;
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slot_count_) return;
  const Slot& s = slot_ref(slot);
  if (!s.live || s.gen != gen) return;  // already fired or cancelled
  // The heap entry stays behind as a tombstone (generation mismatch) and is
  // skipped when it surfaces — exactly when the old kernel would have
  // dropped it, so event order is bit-identical to the lazy-delete design.
  release_slot(slot);
}

void Simulator::reset() {
  // Destroy every constructed slot (releasing any pending callbacks and
  // their captures) and let acquire_slot placement-construct them again on
  // demand: generations restart at 1 and the free list restarts empty,
  // matching a fresh simulator exactly. Chunks and the heap buffer stay
  // allocated, so the next play schedules into warm memory.
  for (std::size_t i = 0; i < slot_count_; ++i) {
    slot_ref(static_cast<std::uint32_t>(i)).~Slot();
  }
  slot_count_ = 0;
  free_slots_.clear();
  heap_size_ = 0;
  hot_slot_ = kNilSlot;
  live_ = 0;
  now_ = 0;
  next_seq_ = 1;
  executed_ = 0;
  pos_ = Key{};
  fire_seq_ = 0;
  next_order_ = 0;
  passes_.clear();
  ++log_epoch_;
  stop_requested_ = false;
  // Timer owners are per-play objects: drop every registration, and make
  // the ids handed out so far stale, so an owner that outlives the reset
  // cannot remove a later owner's timer.
  lane_.clear();
  lane_timers_.clear();
  ++lane_epoch_;
}

TimerId Simulator::add_timer(TimerFn fire, void* owner, TimerFn catch_up) {
  RV_CHECK(fire != nullptr);
  std::size_t i = 0;
  while (i < lane_timers_.size() && lane_timers_[i].fire != nullptr) ++i;
  if (i == lane_timers_.size()) lane_timers_.emplace_back();
  lane_timers_[i] = LaneTimer{fire, catch_up, owner};
  return (static_cast<TimerId>(lane_epoch_) << 32) | i;
}

void Simulator::remove_timer(TimerId id) {
  if (id >> 32 != lane_epoch_) return;
  const auto i = static_cast<std::uint32_t>(id);
  RV_CHECK(i < lane_timers_.size() && lane_timers_[i].fire != nullptr)
      << "timer " << id << " is not registered";
  disarm_timer(id);
  lane_timers_[i] = LaneTimer{};
}

void Simulator::disarm_timer(TimerId id) {
  const auto i = static_cast<std::uint32_t>(id);
  if (id >> 32 != lane_epoch_ || i >= lane_timers_.size() ||
      !lane_timers_[i].armed) {
    return;
  }
  std::erase_if(lane_, [i](const ArmedTimer& a) { return a.timer == i; });
  lane_timers_[i].armed = false;
}

void Simulator::catch_up_all() {
  for (std::size_t i = 0; i < lane_timers_.size(); ++i) {
    const LaneTimer timer = lane_timers_[i];
    if (timer.catch_up != nullptr) timer.catch_up(timer.owner);
  }
  passes_.clear();
  ++log_epoch_;
}

bool Simulator::fire_next(unsigned __int128 limit) {
  if (passes_.size() >= kPassLogLimit) catch_up_all();
  // Cancellation tombstones leave the heap only when they surface, so drop
  // them off the root before comparing it with the lane.
  while (heap_size_ > 0) {
    const std::uint64_t root = heap_[0].seq_slot();
    if (slot_ref(static_cast<std::uint32_t>(root & kSlotMask)).seq_slot ==
        root) {
      break;
    }
    heap_pop_root();
  }
  const unsigned __int128 heap_key = heap_size_ > 0 ? heap_[0].key : kNoKey;
  const unsigned __int128 lane_key =
      lane_.empty() ? kNoKey : lane_.back().key.at_tie;
  if (heap_key < lane_key) {
    if (heap_key > limit) return false;
    const HeapEntry e = heap_pop_root();
    const auto slot = static_cast<std::uint32_t>(e.seq_slot() & kSlotMask);
    Slot& s = slot_ref(slot);
    // Retire the id first — a self-cancel from inside the callback is stale,
    // matching the original pop-then-fire kernel — then fire in place:
    // chunked slots never move, even when the callback schedules new events
    // and grows the pool. The slot joins the free list only after the
    // callback returns, so nested scheduling cannot reuse it mid-flight.
    // (s.seq_slot keeps its stale value: sequence numbers are unique and
    // this entry was just popped, so no pending entry can match it.)
    s.live = false;
    if (++s.gen == 0) s.gen = 1;
    --live_;
    fire_at(Key{e.key, 0}, [&s] { s.fn.invoke_and_clear(); });
    if (hot_slot_ == kNilSlot) {
      hot_slot_ = slot;
    } else {
      free_slots_.push_back(slot);
    }
    return true;
  }
  // A real key never equals a virtual one, so only an empty heap and lane
  // tie here (at kNoKey).
  if (lane_key > limit) return false;
  const ArmedTimer armed = lane_.back();
  lane_.pop_back();
  lane_timers_[armed.timer].armed = false;
  // Copied out: the callback may register timers and grow the registrations.
  const LaneTimer timer = lane_timers_[armed.timer];
  fire_at(armed.key, [&timer] { timer.fire(timer.owner); });
  return true;
}

bool Simulator::step() {
  const bool fired = fire_next(kLastKey);
  catch_up_all();
  return fired;
}

void Simulator::run() {
  while (!stop_requested_ && fire_next(kLastKey)) {
  }
  stop_requested_ = false;
  catch_up_all();
}

void Simulator::run_until(SimTime deadline) {
  RV_CHECK_GE(deadline, now_);
  const unsigned __int128 limit = key_of(deadline, ~std::uint64_t{0});
  while (!stop_requested_ && fire_next(limit)) {
  }
  if (stop_requested_) {
    // The clock and position() stay at the stopping event.
    stop_requested_ = false;
    catch_up_all();
    return;
  }
  now_ = deadline;
  // Every key at or before the deadline decided so far is passed, those
  // the catch-up decides included. (A key decided after the run returns
  // takes a seq first, so it is ahead.)
  pos_ = Key{key_of(deadline, (next_seq_ << kSlotBits) - 1),
             ~static_cast<unsigned __int128>(0)};
  catch_up_all();
}

}  // namespace rv::sim
