// Discrete-event simulation kernel.
//
// A Simulator owns a priority queue of timestamped events. Events at equal
// timestamps fire in scheduling order (a monotonically increasing sequence
// number breaks ties), which makes runs deterministic. Events can be
// cancelled in O(1) through the EventId returned at scheduling time.
//
// The pending queue is a 4-ary min-heap of 16-byte {time, seq|slot} keys, so
// the fire order is {time, seq} by construction (differential-tested against
// the seed kernel in tests/sim_kernel_test.cc). (A hierarchical timer wheel
// once sat in front of the heap. Nearly every study event landed above its
// first level and was pushed twice, so it cost the study more than it saved
// and was removed; see docs/BENCHMARKS.md.)
//
// Virtual events. Background load (a link direction's cross-traffic
// arrivals and the transmit-dones that only start background entries) is
// most of a study play's events, and none of it schedules anything. Such an
// event takes no seq and no slot: its owner computes it when something
// touches the owner and the kernel has passed the event's key (see Key
// below). The key places it exactly where an event scheduled at the same
// moment would have fired: after the real events scheduled before it was
// decided, before those scheduled after. A virtual event that must run in
// real time (one that schedules a real event, or draws from a random
// stream other owners share) is armed on the timer lane, a small sorted
// array beside the heap whose minimum step() merges with the heap root.
//
// Layout: callbacks live in pooled slots (recycled via a free list) and the
// heap, a vector of 16-byte keys, holds no closure, so sifting never moves
// one and events fire in place: the callback is invoked inside its slot,
// never copied or moved out. Slots are kept in chunks, vectors each reserved
// once to kChunkSize and filled by emplace_back, so a slot is built on first
// use and never moves, even when the firing callback schedules enough events
// to add a chunk. An EventId encodes {generation, slot}; cancellation bumps
// the slot's generation, instantly invalidating the heap entry, which is
// skipped as a tombstone when it surfaces. Cancelling an already-fired or
// stale id compares generations and is a true no-op — no per-cancel state
// accumulates (the old kernel leaked an unordered_set entry per stale
// cancel).
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
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

// A place in the fire order. A real event's key is its heap key (time in
// the high 64 bits of at_tie, then seq << 24 | slot) with rank 0. A
// virtual event decided while the seq counter stood at `tie` (the seq the
// next schedule call takes) has at_tie = time << 64 | ((tie << 24) - 1):
// after every real event at that time with a lower seq (slots stay below
// 2^24 - 1), before every one with seq tie or later. `rank` orders virtual
// keys with equal at_tie by where each was decided, as the kernel passed
// its deciding event: it is that event's key with the 24 slot bits
// replaced by a flag and the count of virtual keys decided before it
// (mod 2^23), which orders the keys one event decides. The flag is set for
// a virtual deciding event, which sorts after the real one whose seq its
// tie follows.
struct Key {
  unsigned __int128 at_tie = 0;
  unsigned __int128 rank = 0;

  SimTime at() const { return static_cast<SimTime>(at_tie >> 64); }
  // Bitwise rather than short-circuit: keys are compared on every
  // background event, and the outcome is a coin flip for the predictor.
  friend bool operator<(const Key& a, const Key& b) {
    return (a.at_tie < b.at_tie) |
           ((a.at_tie == b.at_tie) & (a.rank < b.rank));
  }
  friend bool operator==(const Key& a, const Key& b) {
    return (a.at_tie == b.at_tie) & (a.rank == b.rank);
  }
};
// After every key: no event.
inline constexpr Key kNever{~static_cast<unsigned __int128>(0),
                            ~static_cast<unsigned __int128>(0)};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `f` to run at absolute time `at` (>= now). The callable is
  // constructed directly inside its event slot.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(SimTime at, F&& f) {
    RV_CHECK_GE(at, now_) << "cannot schedule into the past";
    RV_CHECK_LT(next_seq_, kSeqLimit) << "sequence space exhausted";
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    s.fn = std::forward<F>(f);
    s.seq_slot = (next_seq_++ << kSlotBits) | slot;
    s.live = true;
    heap_push(HeapEntry{key_of(at, s.seq_slot)});
    ++live_;
    return make_id(s.gen, slot);
  }
  // Schedules `f` to run `delay` from now.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_in(SimTime delay, F&& f) {
    RV_CHECK_GE(delay, 0);
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  // The kernel's place in the fire order: the key of the event firing now
  // or, between events and after a run, the last key it passed. A
  // run_until that reaches its deadline passes every key at or before the
  // deadline decided before it returned; a stopped run stays at the
  // stopping event's key.
  const Key& position() const { return pos_; }
  // Whether the kernel has passed `key`: it is at or before position().
  bool passed(const Key& key) const { return !(pos_ < key); }

  // Where a reader of the log of passes (below) got to. An owner that
  // decides on events at increasing passed parents, as a catch-up does,
  // hands the same cursor to each virtual_key call, so the log is read
  // once from where the last call stopped rather than searched every time.
  struct LogCursor {
    std::uint64_t epoch = 0;  // the log's epoch; older cursors start over
    std::size_t next = 0;     // the first entry not yet known to be passed
  };
  // The end of the log: a cursor for an owner that has caught up.
  LogCursor log_end() const { return LogCursor{log_epoch_, passes_.size()}; }

  // The key of a virtual event at `at` (>= parent's time) that the event at
  // `parent` decides on. `parent` is position() for a decision made now, by
  // the firing event or by code outside a run, and otherwise the key of a
  // passed virtual event its owner is catching up on, no earlier than the
  // parent of the last call with the same `cursor`. The tie is the seq
  // counter as it stood when the kernel passed `parent`: the counter at the
  // first logged fire after `parent` that took seqs, else the counter now.
  // A decision made outside a run ranks as one made at the end of the last
  // event fired, and takes a seq of its own, as a schedule call there
  // would, so it sorts after every key the last run passed.
  Key virtual_key(SimTime at, const Key& parent, LogCursor& cursor) {
    RV_CHECK_GE(at, parent.at()) << "cannot decide on the past";
    RV_DCHECK(passed(parent)) << "the parent is ahead of the kernel";
    std::uint64_t tie = next_seq_;
    if (!(parent == pos_)) {
      tie = tie_after(parent, cursor);
    } else if (fire_seq_ == 0) {
      RV_CHECK_LT(next_seq_, kSeqLimit) << "sequence space exhausted";
      tie = ++next_seq_;
    }
    return Key{key_of(at, (tie << kSlotBits) - 1), rank_from(parent.at_tie)};
  }
  Key virtual_key(SimTime at, const Key& parent) {
    LogCursor cursor;
    return virtual_key(at, parent, cursor);
  }
  // The first place at time `at`, before every event there: where an owner
  // arms its timer to learn, before anything else at `at` happens, the
  // exact key of an event of its own at `at` that is not decided yet.
  static Key first_at(SimTime at) {
    return Key{key_of(at, (std::uint64_t{1} << kSlotBits) - 1), 0};
  }

  // Timer lane. An owner of virtual events registers once with add_timer
  // and arms its one timer at a virtual key when an event of its must run
  // in real time: fire(owner) runs when the kernel reaches that key, after
  // which the timer is unarmed again. A lane fire counts in
  // events_executed() and moves the clock and position() as a heap fire
  // does; an armed timer counts in pending_events(). catch_up(owner), when
  // given, runs as each run(), run_until() and step() returns, and before a
  // fire whenever the log of fires that took seqs is long: the owner then
  // computes every virtual event of its the kernel has passed, after which
  // the log is cleared, so it stays short. reset() drops every
  // registration; an owner that dies before the next reset removes its own
  // timer.
  using TimerFn = void (*)(void* owner);
  TimerId add_timer(TimerFn fire, void* owner, TimerFn catch_up = nullptr);
  // Drops the timer, armed or not. A no-op for ids from before a reset().
  void remove_timer(TimerId id);
  // Arms the (unarmed) timer at `key`, which virtual_key or first_at made
  // and the kernel has not passed (RV_CHECK).
  void arm_timer(TimerId id, const Key& key) {
    const auto i = static_cast<std::uint32_t>(id);
    RV_CHECK(id >> 32 == lane_epoch_ && i < lane_timers_.size() &&
             lane_timers_[i].fire != nullptr)
        << "timer " << id << " is not registered";
    RV_CHECK(!lane_timers_[i].armed) << "timer " << id << " is armed";
    const auto tie_slot = static_cast<std::uint64_t>(key.at_tie);
    RV_CHECK((tie_slot & kSlotMask) == kSlotMask &&
             (tie_slot >> kSlotBits) < next_seq_)
        << "timer key is not a virtual key";
    RV_CHECK(!passed(key)) << "timer key is behind the kernel";
    lane_timers_[i].armed = true;
    // Insertion into the latest-first order: a study play has a handful of
    // timers armed, so this moves a few entries at most.
    lane_.emplace_back();
    std::size_t pos = lane_.size() - 1;
    while (pos > 0 && lane_[pos - 1].key < key) {
      lane_[pos] = lane_[pos - 1];
      --pos;
    }
    lane_[pos] = ArmedTimer{key, i};
  }
  // Unarms the timer; a no-op when it is not armed.
  void disarm_timer(TimerId id);

  // Cancels a pending event; cancelling an already-fired or invalid id is a
  // harmless no-op (timers race with the events that disarm them).
  void cancel(EventId id);

  // Returns the simulator to its just-constructed state — clock at zero, no
  // pending events, sequence counter and slot generations back at their
  // initial values — while keeping the capacity of the slot chunks and the
  // heap. Pending callbacks are destroyed (their captures released)
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
  bool step();

  // Live (scheduled, not yet fired or cancelled) events, armed lane timers
  // included; virtual events that no timer carries are not events here.
  std::size_t pending_events() const { return live_ + lane_.size(); }
  // Callbacks fired since construction or the last reset(), heap events
  // and lane timers. Cheap run-size telemetry for the observability layer
  // (per-play sim_events counter).
  std::uint64_t events_executed() const { return executed_; }

  // Introspection for tests and benches: slots built since construction or
  // the last reset (bounded by the peak number of simultaneously pending
  // events, regardless of how many events are scheduled or cancelled) and
  // raw heap entries (live events plus not-yet-surfaced cancellation
  // tombstones).
  std::size_t slot_capacity() const { return slot_count_; }
  std::size_t heap_size() const { return heap_.size(); }

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
  // A rank's slot bits: the flag of a virtual deciding event, then the
  // decision's order.
  static constexpr std::uint64_t kVirtualRank = std::uint64_t{1} << 23;
  static constexpr std::uint64_t kOrderMask = kVirtualRank - 1;

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

  // Slot storage: chunks of kChunkSize slots (see Layout above).
  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  Slot& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  // Fires the next event, heap or lane, if its key is at or before
  // `limit`; false when there is none.
  bool fire_next(unsigned __int128 limit);
  // Runs the `fn` of the event at `key`, logging the fire if it took seqs.
  template <typename Fn>
  void fire_at(const Key& key, Fn&& fn) {
    ++executed_;
    now_ = key.at();
    pos_ = key;
    fire_seq_ = next_seq_;
    fn();
    if (next_seq_ != fire_seq_) passes_.push_back(Pass{key, fire_seq_});
    fire_seq_ = 0;
  }
  // The rank (see Key) of the next virtual key decided at `from`, the
  // at_tie of its deciding event.
  unsigned __int128 rank_from(unsigned __int128 from) {
    const auto slot = static_cast<std::uint64_t>(from) & kSlotMask;
    return (from - slot) | (slot == kSlotMask ? kVirtualRank : 0) |
           (next_order_++ & kOrderMask);
  }
  // Runs every registered catch_up and clears the log of passes.
  void catch_up_all();
  // The seq counter when the kernel passed `parent` (< position()),
  // reading the log from `cursor` on.
  std::uint64_t tie_after(const Key& parent, LogCursor& cursor) const {
    if (cursor.epoch != log_epoch_) cursor = LogCursor{log_epoch_, 0};
    const Pass* const end = passes_.data() + passes_.size();
    const Pass* pass = passes_.data() + cursor.next;
    // Times differ in nearly every comparison, so they are compared first.
    while (pass != end && pass->key.at() <= parent.at() &&
           !(parent < pass->key)) {
      ++pass;
    }
    cursor.next = static_cast<std::size_t>(pass - passes_.data());
    if (pass != end) return pass->seq;
    return fire_seq_ != 0 ? fire_seq_ : next_seq_;
  }

  void heap_push(HeapEntry entry);
  HeapEntry heap_pop_root();
  void release_slot(std::uint32_t slot);

  // A free slot, else a new one (adding a chunk when the last is full).
  std::uint32_t acquire_slot() {
    if (free_slots_.empty()) return new_slot();
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  std::uint32_t new_slot();

  // Hot scalars first: every event touches most of these.
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  bool stop_requested_ = false;
  // position(): {0, 0} (before every key) after construction and reset.
  Key pos_;
  // The counter as the firing event began, 0 between events.
  std::uint64_t fire_seq_ = 0;
  std::uint64_t next_order_ = 0;  // virtual keys decided, for their ranks
  std::vector<HeapEntry> heap_;
  std::size_t slot_count_ = 0;  // built slots (pool high-water mark)
  std::vector<std::vector<Slot>> chunks_;
  std::vector<std::uint32_t> free_slots_;

  // The timer lane: the armed timers' keys, latest first, so the next to
  // fire is the last entry; and the registrations by timer index
  // (fire == nullptr: a free entry).
  struct ArmedTimer {
    Key key;
    std::uint32_t timer;
  };
  struct LaneTimer {
    TimerFn fire = nullptr;
    TimerFn catch_up = nullptr;
    void* owner = nullptr;
    bool armed = false;
  };
  std::vector<ArmedTimer> lane_;
  std::vector<LaneTimer> lane_timers_;
  std::uint32_t lane_epoch_ = 0;  // bumped by reset()

  // The log of passes: each fire since the last catch_up_all that took
  // seqs, with the counter as it began, in fire order. A virtual event
  // decided by a passed virtual parent takes its tie from here.
  struct Pass {
    Key key;
    std::uint64_t seq;
  };
  std::vector<Pass> passes_;
  std::uint64_t log_epoch_ = 1;  // bumped whenever passes_ is cleared
  // A longer log makes catch_up_all run before the next fire.
  static constexpr std::size_t kPassLogLimit = 64;
};

}  // namespace rv::sim
