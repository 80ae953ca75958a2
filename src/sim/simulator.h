// Discrete-event simulation kernel.
//
// A Simulator owns a priority queue of timestamped events. Events at equal
// timestamps fire in scheduling order (a monotonically increasing sequence
// number breaks ties), which makes runs deterministic. Events can be
// cancelled in O(1) through the EventId returned at scheduling time.
//
// The pending queue is a 4-ary min-heap of 16-byte {time, seq|slot} keys, so
// the fire order is {time, seq} by construction (differential-tested against
// the seed kernel in tests/sim_kernel_test.cc). Beside it sits a timer lane:
// objects that own at most one pending event (each link direction's
// transmit-done, each cross-traffic source's next arrival) keep that event
// as a bare key in one small sorted array, whose minimum step() merges with
// the heap root by the same {time, seq} compare. Background arrivals and
// transmit-dones are three quarters of a study play's events, so the heap
// handles only the rest. (A hierarchical timer wheel once sat in front of
// the heap. Nearly every study event landed above its first level and was
// pushed twice, so it cost the study more than it saved and was removed;
// see docs/BENCHMARKS.md.)
//
// Layout: callbacks live in pooled slots (recycled via a free list) and the
// heap holds only the 16-byte keys, so sifting never moves a closure and
// events fire in place — the callback is invoked inside its slot, never
// copied or moved out. Slots are stored in fixed-size chunks with stable
// addresses, so pool growth never relocates a pending callback (even when
// the callback itself schedules and grows the pool). An EventId encodes
// {generation, slot}; cancellation bumps the slot's generation, instantly
// invalidating the heap entry, which is skipped as a tombstone when it
// surfaces. Cancelling an already-fired or stale id compares generations and
// is a true no-op — no per-cancel state accumulates (the old kernel leaked
// an unordered_set entry per stale cancel).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_fn.h"
#include "util/check.h"
#include "util/units.h"

namespace rv::sim {

// Encodes {generation (high 32), slot (low 32)}. Generations start at 1, so
// no valid id is ever 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;
// A lane timer: {reset epoch (high 32), registration index (low 32)}.
using TimerId = std::uint64_t;

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute time `at` (>= now).
  EventId schedule_at(SimTime at, EventFn&& fn);
  // Schedules `fn` to run `delay` from now.
  EventId schedule_in(SimTime delay, EventFn&& fn);

  // Fast-path overloads: a raw callable is forwarded and constructed
  // directly inside its event slot — no temporary EventFn, no move of the
  // closure. Call sites passing lambdas bind here; passing an EventFn
  // rvalue still takes the overloads above.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventId schedule_at(SimTime at, F&& f) {
    RV_CHECK_GE(at, now_) << "cannot schedule into the past";
    RV_CHECK_LT(next_seq_, kSeqLimit) << "sequence space exhausted";
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    s.fn = std::forward<F>(f);
    return arm_slot(at, next_seq_++, slot, s);
  }
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventId schedule_in(SimTime delay, F&& f) {
    RV_CHECK_GE(delay, 0);
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  // Reserved seqs: a caller that learns only later whether it needs an
  // event takes the event's sequence number now and arms it later, on a
  // lane timer (below). reserve_seq() takes the sequence number the next
  // schedule call would have taken, so an event armed at that {at, seq} key
  // fires where an event scheduled at reservation time would have fired,
  // and no other event's key moves. A key that is never armed costs
  // nothing. has_fired(at, seq) says whether the kernel has run past the
  // key: the last fired event is at or after it in {time, seq} order, or
  // the last run_until deadline covers it (every key at or before the
  // deadline whose seq was already taken).
  std::uint64_t reserve_seq() {
    RV_CHECK_LT(next_seq_, kSeqLimit) << "sequence space exhausted";
    return next_seq_++;
  }
  bool has_fired(SimTime at, std::uint64_t seq) const {
    return key_of(at, seq << kSlotBits) <= fired_;
  }

  // Timer lane. An object that owns at most one pending event at a time (a
  // link direction's transmit-done, a cross-traffic source's next arrival)
  // registers once with add_timer and then arms its timer at a key whose
  // seq it took with reserve_seq(). An armed timer is one key in a small
  // contiguous array beside the heap, kept latest first, with no slot and
  // no closure; step() fires whichever is earlier, the heap's live root or
  // the lane's last (earliest) key.
  // Seqs are unique across both, so events fire in the order an all-heap
  // kernel gives them. A lane fire counts in events_executed() and sets the
  // clock and the has_fired watermark as a heap fire does; an armed timer
  // counts in pending_events(). reset() drops every registration; an owner
  // that dies before the next reset removes its own timer.
  using TimerFn = void (*)(void* owner);
  TimerId add_timer(TimerFn fire, void* owner);
  // Drops the timer, armed or not. A no-op for ids from before a reset().
  void remove_timer(TimerId id);
  // Arms the (unarmed) timer at {at, seq}; fire(owner) runs when the kernel
  // reaches that key, after which the timer is unarmed again. Arming an
  // unreserved seq, or a key the kernel has already passed, trips an
  // RV_CHECK.
  void arm_timer(TimerId id, SimTime at, std::uint64_t seq) {
    const auto i = static_cast<std::uint32_t>(id);
    RV_CHECK(id >> 32 == lane_epoch_ && i < lane_timers_.size() &&
             lane_timers_[i].fire != nullptr)
        << "timer " << id << " is not registered";
    RV_CHECK(!lane_timers_[i].armed) << "timer " << id << " is armed";
    RV_CHECK(seq != 0 && seq < next_seq_)
        << "sequence " << seq << " was never reserved";
    RV_CHECK(at >= now_ && !has_fired(at, seq))
        << "timer key is behind the clock";
    lane_timers_[i].armed = true;
    // Insertion into the latest-first order: a study play has a handful of
    // timers armed, so this moves a few entries at most.
    const unsigned __int128 key = key_of(at, seq << kSlotBits);
    lane_.emplace_back();
    std::size_t pos = lane_.size() - 1;
    while (pos > 0 && lane_[pos - 1].key < key) {
      lane_[pos] = lane_[pos - 1];
      --pos;
    }
    lane_[pos] = ArmedTimer{key, i};
  }

  // Cancels a pending event; cancelling an already-fired or invalid id is a
  // harmless no-op (timers race with the events that disarm them).
  void cancel(EventId id);

  // Returns the simulator to its just-constructed state — clock at zero, no
  // pending events, sequence counter and slot generations back at their
  // initial values — while keeping the slot chunks and the heap buffer
  // allocated. Pending callbacks are destroyed (their captures released)
  // exactly as the destructor would. After reset the simulator is
  // observationally indistinguishable from a fresh one, so per-worker
  // contexts can reuse it across plays without perturbing results; only the
  // warm allocations differ.
  void reset();

  // Runs until no event is pending or a stop() is requested.
  void run();
  // Runs events with time <= deadline; the clock ends at the deadline even if
  // the queue drained earlier. A stopped run_until leaves the clock at the
  // stopping event's time instead.
  void run_until(SimTime deadline);
  // Asks the running run()/run_until() to return once the firing event
  // completes, after ns-3's Simulator::Stop. Events still pending, those at
  // the current time included, stay pending and fire only if a later run
  // reaches them. A stop requested outside a run (before it, or from a
  // callback that step() fires) makes the next run()/run_until() return at
  // once, firing nothing and leaving the clock where it is. The run that
  // returns for a stop consumes it, so a stop never carries into a later
  // run; reset() drops one still waiting.
  void stop() { stop_requested_ = true; }
  // Runs at most one event; returns false when none is pending.
  bool step() { return fire_next(kLastKey); }

  // Live (scheduled, not yet fired or cancelled) events, armed lane timers
  // included.
  std::size_t pending_events() const { return live_ + lane_.size(); }
  // Callbacks fired since construction or the last reset(). Cheap run-size
  // telemetry for the observability layer (per-play sim_events counter).
  std::uint64_t events_executed() const { return executed_; }

  // Introspection for tests and benches: total slots ever allocated (bounded
  // by the peak number of simultaneously pending events, regardless of how
  // many events are scheduled or cancelled over a run) and raw heap entries
  // (live events plus not-yet-surfaced cancellation tombstones).
  std::size_t slot_capacity() const { return slot_count_; }
  std::size_t heap_size() const { return heap_size_; }

 private:
  // 16-byte heap entry, a single 128-bit key: timestamp in the high 64 bits,
  // then the sequence number (tie-break: schedule order, high 40 bits of the
  // low word) and the slot index (low 24 bits). Ordering two entries is one
  // unsigned 128-bit compare — cmp/sbb, branch-free — instead of a
  // compare-time-then-compare-seq branch that the sift loops would
  // mispredict on near-tied timestamps. Times are non-negative (schedule_at
  // checks at >= now), so the unsigned compare is order-preserving, and seq
  // is unique per event so no two keys are ever equal. The packing is
  // checked at schedule time: 2^40 events or 2^24 concurrently pending
  // slots per simulator trips an RV_CHECK rather than corrupting order.
  struct HeapEntry {
    unsigned __int128 key;
    SimTime at() const { return static_cast<SimTime>(key >> 64); }
    std::uint64_t seq_slot() const { return static_cast<std::uint64_t>(key); }
  };
  static unsigned __int128 key_of(SimTime at, std::uint64_t seq_slot) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(at))
            << 64) |
           seq_slot;
  }
  struct Slot {
    EventFn fn;
    std::uint64_t seq_slot = 0;  // key of the live occupant, 0 when free
    std::uint32_t gen = 1;
    bool live = false;
  };

  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1}
                                             << (64 - kSlotBits);

  // Above every real key (times are non-negative, so a real key's top bit
  // is clear): an empty heap or lane.
  static constexpr unsigned __int128 kNoKey = ~static_cast<unsigned __int128>(0);
  // The greatest real key: no limit for fire_next.
  static constexpr unsigned __int128 kLastKey = kNoKey >> 1;

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.key < b.key;
  }

  // Slot storage: fixed-size chunks of raw memory, never relocated, with
  // Slots placement-constructed one at a time as the pool's high-water mark
  // rises. Stable addresses let events fire in place and callbacks grow the
  // pool mid-fire; constructing lazily means a fresh Simulator costs two
  // small allocations, not an 80 KB chunk initialisation.
  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  Slot& slot_ref(std::uint32_t slot) const {
    if (__builtin_expect(slot < kChunkSize, 1)) {
      return *(reinterpret_cast<Slot*>(chunk0_) + slot);
    }
    return *(reinterpret_cast<Slot*>(chunks_[slot >> kChunkShift].get()) +
             (slot & kChunkMask));
  }

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;  // empty hot_slot_

  // Fires the next event, heap or lane, if its key is at or before
  // `limit`; false when there is none.
  bool fire_next(unsigned __int128 limit);

  void heap_push(HeapEntry entry);
  HeapEntry heap_pop_root();
  void heap_reserve(std::size_t cap);
  void release_slot(std::uint32_t slot);

  // Slot acquisition: the free-list pop (steady state) and the high-water
  // bump within an existing chunk (pool warm-up) stay inline; only a new
  // chunk allocation goes out of line.
  std::uint32_t acquire_slot() {
    // One-deep cache in front of the free list: the slot freed by the event
    // that is firing right now is typically re-acquired by the reschedule it
    // performs, skipping the vector round trip entirely.
    if (hot_slot_ != kNilSlot) {
      const std::uint32_t slot = hot_slot_;
      hot_slot_ = kNilSlot;
      return slot;
    }
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    if (__builtin_expect(slot_count_ < chunks_.size() * kChunkSize, 1)) {
      const auto slot = static_cast<std::uint32_t>(slot_count_++);
      ::new (static_cast<void*>(&slot_ref(slot))) Slot();
      return slot;
    }
    return grow_chunk();
  }
  std::uint32_t grow_chunk();

  // Second half of scheduling, after the callable is in the slot: record
  // the {seq, slot} key, push the heap entry, hand back the
  // {generation, slot} id.
  EventId arm_slot(SimTime at, std::uint64_t seq, std::uint32_t slot,
                   Slot& s) {
    s.seq_slot = (seq << kSlotBits) | slot;
    s.live = true;
    heap_push(HeapEntry{key_of(at, s.seq_slot)});
    ++live_;
    return make_id(s.gen, slot);
  }

  // Hot scalars first: every event touches most of these.
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  bool stop_requested_ = false;
  // has_fired's watermark: the key of the last fired event, or run_until's
  // deadline key; 0 (before every key) after construction and reset.
  unsigned __int128 fired_ = 0;
  // First slot chunk, cached raw: slot_ref resolves slots < kChunkSize (the
  // steady state of every real play) with one load instead of two.
  unsigned char* chunk0_ = nullptr;
  std::uint32_t hot_slot_ = kNilSlot;  // one-deep slot free-list cache
  // The heap is a flat 64-byte-aligned buffer managed by hand (push keeps
  // the capacity check off the hot path as an expect-false branch; growth
  // is a plain memcpy since HeapEntry is trivially copyable).
  HeapEntry* heap_ = nullptr;
  std::size_t heap_size_ = 0;
  std::size_t heap_cap_ = 0;
  std::size_t slot_count_ = 0;  // constructed slots (pool high-water mark)
  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;

  // The timer lane: the armed timers' keys, latest first, so the next to
  // fire is the last entry; and the registrations by timer index
  // (fire == nullptr: a free entry).
  struct ArmedTimer {
    unsigned __int128 key;
    std::uint32_t timer;
  };
  struct LaneTimer {
    TimerFn fire = nullptr;
    void* owner = nullptr;
    bool armed = false;
  };
  std::vector<ArmedTimer> lane_;
  std::vector<LaneTimer> lane_timers_;
  std::uint32_t lane_epoch_ = 0;  // bumped by reset()
};

}  // namespace rv::sim
