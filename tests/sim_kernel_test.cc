// Differential test: the rewritten event kernel (pooled slots + 4-ary heap)
// against a port of the original kernel (std::function events in a
// std::priority_queue with an unordered_set of cancelled ids). Further down,
// virtual keys and the timer lane are each checked against an all-heap
// replica of the same workload.
//
// The rewrite's contract is that event *order* is bit-identical: equal
// timestamps fire in schedule order, cancellation drops events at exactly
// the same points, and run_until fires exactly the live events at or before
// its deadline. Randomised workloads — nested scheduling, same-timestamp
// bursts, in-flight and stale cancels, deadline runs — are driven through
// both kernels and the fire logs compared. Because EventId encodings differ
// between the kernels, cancels are expressed by schedule index, not raw id.
//
// The seed kernel's run_until consulted the raw heap head, cancelled
// entries included, so a cancelled head at or before the deadline admitted
// one step that could fire a live event past it. The reference below is
// moved to the current contract on purpose (its run_until skips cancelled
// heads); the study never took that path.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <unordered_set>
#include <vector>

#include "sim/simulator.h"
#include "util/check.h"
#include "util/units.h"

namespace rv::sim {
namespace {

// The seed repo's kernel, verbatim except for the class name and
// run_until, which skips cancelled heads before it compares the deadline.
class LegacySimulator {
 public:
  LegacySimulator() = default;

  SimTime now() const { return now_; }

  EventId schedule_at(SimTime at, std::function<void()> fn) {
    const EventId id = next_id_++;
    queue_.push(Event{at, id, std::move(fn)});
    return id;
  }

  EventId schedule_in(SimTime delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  void cancel(EventId id) {
    if (id == kInvalidEventId) return;
    cancelled_.insert(id);
  }

  bool step() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      if (const auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.at;
      ev.fn();
      return true;
    }
    return false;
  }

  void run() {
    while (step()) {
    }
  }

  void run_until(SimTime deadline) {
    while (!queue_.empty()) {
      if (const auto it = cancelled_.find(queue_.top().id);
          it != cancelled_.end()) {
        cancelled_.erase(it);
        queue_.pop();
        continue;
      }
      if (queue_.top().at > deadline) break;
      step();
    }
    now_ = deadline;
  }

 private:
  struct Event {
    SimTime at;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  SimTime now_ = 0;
  EventId next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

struct FireRecord {
  int label;
  SimTime at;
  bool operator==(const FireRecord& o) const {
    return label == o.label && at == o.at;
  }
};

// Runs one deterministic randomised workload against `Sim` and returns the
// fire log. Both kernels see the same PRNG stream, and callbacks reference
// prior events by schedule index, so the only way the logs can diverge is a
// genuine event-ordering difference.
template <typename Sim>
std::vector<FireRecord> drive(std::uint32_t seed) {
  Sim sim;
  std::mt19937 rng(seed);
  std::vector<FireRecord> log;
  std::vector<EventId> ids;  // ids[i] = i-th scheduled event, either kernel
  int next_label = 0;

  // Event bodies can themselves schedule and cancel; behaviour depends only
  // on the label, so it is identical across kernels.
  std::function<void(int)> fire = [&](int label) {
    log.push_back({label, sim.now()});
    if (label % 3 == 0) {
      const int nested = next_label++;
      const SimTime delta = label % 17;  // includes zero-delay self-bursts
      ids.push_back(sim.schedule_in(delta, [&fire, nested] { fire(nested); }));
    }
    if (label % 5 == 0 && !ids.empty()) {
      sim.cancel(ids[static_cast<std::size_t>(label) % ids.size()]);
    }
  };

  for (int op = 0; op < 400; ++op) {
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
      case 3: {  // schedule; small deltas force same-timestamp collisions
        const int label = next_label++;
        const SimTime delta = static_cast<SimTime>(rng() % 5);
        ids.push_back(
            sim.schedule_at(sim.now() + delta, [&fire, label] { fire(label); }));
        break;
      }
      case 4: {  // cancel a random earlier event — pending, fired, or stale
        if (!ids.empty()) sim.cancel(ids[rng() % ids.size()]);
        break;
      }
      case 5: {  // bounded drain, deadline often colliding with event times
        sim.run_until(sim.now() + static_cast<SimTime>(rng() % 7));
        break;
      }
      case 6: {
        sim.step();
        break;
      }
      case 7: {  // occasionally drain fully
        if (rng() % 4 == 0) sim.run();
        break;
      }
    }
  }
  sim.run();
  return log;
}

TEST(SimKernelDifferential, FireLogsMatchLegacyKernel) {
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    const auto legacy = drive<LegacySimulator>(seed);
    const auto current = drive<Simulator>(seed);
    ASSERT_FALSE(legacy.empty()) << "seed " << seed << " exercised nothing";
    ASSERT_EQ(legacy.size(), current.size()) << "seed " << seed;
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      ASSERT_EQ(legacy[i], current[i])
          << "seed " << seed << " diverged at fire #" << i << ": legacy {"
          << legacy[i].label << " @ " << legacy[i].at << "} vs current {"
          << current[i].label << " @ " << current[i].at << "}";
    }
  }
}

// Long-horizon variant: deltas span nine orders of magnitude (sub-256us,
// 256us blocks, 65ms blocks, 16s blocks) plus far-future times past 2^32 us,
// so the log only matches if the heap keeps exact {time, seq} order across
// the full 64-bit time key, not just among near-tied timestamps.
template <typename Sim>
std::vector<FireRecord> drive_multilevel(std::uint32_t seed) {
  Sim sim;
  std::mt19937 rng(seed);
  std::vector<FireRecord> log;
  std::vector<EventId> ids;
  int next_label = 0;

  // Deltas chosen per magnitude band; the last band lies past 2^32 us
  // (~71 minutes), where the time key's upper 32 bits come into play.
  const auto pick_delta = [&]() -> SimTime {
    switch (rng() % 6) {
      case 0: return static_cast<SimTime>(rng() % 4);            // exact ties
      case 1: return static_cast<SimTime>(rng() % 256);          // < 256 us
      case 2: return static_cast<SimTime>(rng() % (256 * 256));  // < 65 ms
      case 3: return static_cast<SimTime>(rng() % (1 << 24));    // < 17 s
      case 4: return static_cast<SimTime>(rng() % (1u << 31));   // < 36 min
      default:  // past 2^32 us
        return static_cast<SimTime>((std::uint64_t{1} << 32) + rng() % 100000);
    }
  };

  std::function<void(int)> fire = [&](int label) {
    log.push_back({label, sim.now()});
    if (label % 4 == 0) {
      const int nested = next_label++;
      const SimTime delta = (label % 2 == 0)
                                ? static_cast<SimTime>(label % 9)
                                : static_cast<SimTime>((label % 5) * 70000);
      ids.push_back(sim.schedule_in(delta, [&fire, nested] { fire(nested); }));
    }
    if (label % 7 == 0 && !ids.empty()) {
      sim.cancel(ids[static_cast<std::size_t>(label) % ids.size()]);
    }
  };

  for (int op = 0; op < 300; ++op) {
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
      case 3: {
        const int label = next_label++;
        ids.push_back(sim.schedule_at(sim.now() + pick_delta(),
                                      [&fire, label] { fire(label); }));
        break;
      }
      case 4: {
        if (!ids.empty()) sim.cancel(ids[rng() % ids.size()]);
        break;
      }
      case 5: {  // deadlines from ties up to past 2^32 us
        sim.run_until(sim.now() + pick_delta());
        break;
      }
      case 6: {
        sim.step();
        break;
      }
      case 7: {
        if (rng() % 4 == 0) sim.run();
        break;
      }
    }
  }
  sim.run();
  return log;
}

TEST(SimKernelDifferential, MultiLevelFireLogsMatchLegacyKernel) {
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    const auto legacy = drive_multilevel<LegacySimulator>(seed);
    const auto current = drive_multilevel<Simulator>(seed);
    ASSERT_FALSE(legacy.empty()) << "seed " << seed << " exercised nothing";
    ASSERT_EQ(legacy.size(), current.size()) << "seed " << seed;
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      ASSERT_EQ(legacy[i], current[i])
          << "seed " << seed << " diverged at fire #" << i << ": legacy {"
          << legacy[i].label << " @ " << legacy[i].at << "} vs current {"
          << current[i].label << " @ " << current[i].at << "}";
    }
  }
}

TEST(SimKernelDifferential, FarFutureAndCancelledHeadsMatchLegacyKernel) {
  // Entries past 2^32 us, and run_until deadlines behind a cancelled head:
  // the cancelled entry is skipped, the live event past the deadline stays
  // pending, and the clock stops at the deadline. Both kernels must agree
  // on every fire and every clock reading.
  const auto run_one = [](auto&& sim) {
    std::vector<FireRecord> log;
    const auto record = [&log, &sim](int label) {
      return [&log, &sim, label] { log.push_back({label, sim.now()}); };
    };
    const SimTime far = (SimTime{1} << 32) + 5;
    sim.schedule_at(far + 1000, record(0));
    sim.schedule_at(100, record(1));
    const EventId head = sim.schedule_at(10, record(2));
    sim.schedule_at(far, record(3));
    sim.cancel(head);
    sim.run_until(50);  // skips the cancelled head; label 1 stays pending
    log.push_back({-1, sim.now()});
    sim.schedule_at(60, record(4));
    sim.schedule_at(60, record(5));  // same tick: schedule order
    sim.schedule_at(SimTime{1} << 33, record(6));
    const EventId far_head = sim.schedule_at(far - 1, record(7));
    sim.run_until(100);
    sim.cancel(far_head);
    sim.run_until(far - 1);  // skips far_head; label 3 at far stays pending
    log.push_back({-1, sim.now()});
    sim.schedule_at(far - 1, record(8));
    sim.schedule_in(0, record(9));
    sim.run();
    log.push_back({-1, sim.now()});
    return log;
  };
  LegacySimulator legacy;
  Simulator current;
  const auto expected = run_one(legacy);
  ASSERT_EQ(expected.size(), 11u);
  EXPECT_EQ(expected[0], (FireRecord{-1, 50}));
  EXPECT_EQ(expected[1], (FireRecord{4, 60}));
  EXPECT_EQ(expected[4], (FireRecord{-1, (SimTime{1} << 32) + 4}));
  EXPECT_EQ(expected, run_one(current));
  EXPECT_EQ(current.heap_size(), 0u);
  EXPECT_EQ(current.pending_events(), 0u);
}

TEST(SimKernelDifferential, RunUntilStopsAtTheDeadlineBehindACancelledHead) {
  // A cancelled head at or before the deadline does not let a live event
  // past the deadline fire; the next run reaches it.
  const auto run_one = [](auto&& sim) {
    std::vector<FireRecord> log;
    const EventId head = sim.schedule_at(10, [] {});
    sim.schedule_at(100, [&] { log.push_back({1, sim.now()}); });
    sim.cancel(head);
    sim.run_until(50);
    log.push_back({-1, sim.now()});
    sim.run_until(100);
    log.push_back({-1, sim.now()});
    return log;
  };
  LegacySimulator legacy;
  Simulator current;
  const auto expected = run_one(legacy);
  EXPECT_EQ(expected, (std::vector<FireRecord>{{-1, 50}, {1, 100}, {-1, 100}}));
  EXPECT_EQ(expected, run_one(current));
}

// A lane timer owner that runs `on_fire` each time its timer fires.
class FnTimer {
 public:
  FnTimer(Simulator& sim, std::function<void()> on_fire)
      : sim_(sim),
        on_fire_(std::move(on_fire)),
        id_(sim.add_timer(&FnTimer::fire, this)) {}
  ~FnTimer() { sim_.remove_timer(id_); }
  FnTimer(const FnTimer&) = delete;
  FnTimer& operator=(const FnTimer&) = delete;

  void arm(const Key& key) { sim_.arm_timer(id_, key); }
  // Arms at the key of an event decided now.
  void arm_at(SimTime at) { arm(sim_.virtual_key(at, sim_.position())); }
  TimerId id() const { return id_; }

 private:
  static void fire(void* self) { static_cast<FnTimer*>(self)->on_fire_(); }

  Simulator& sim_;
  std::function<void()> on_fire_;
  TimerId id_;
};

// Virtual keys armed on lane timers. A workload like drive() above, in two
// modes that differ only in how "late" events are scheduled: kScheduled
// calls schedule_at when the event is decided on, kReserved takes its
// virtual key then and arms a lane timer at it a few operations later,
// after other (often co-timed) events have been scheduled. kUnarmed never
// arms the late events at all, and late events only log, so it must match
// kScheduled with the late fires removed, as long as no bare step() is
// taken: a step that fires a late event in one mode fires the next plain
// event in the other.
enum class LateMode { kScheduled, kReserved, kUnarmed };

struct Late {
  Key key;
  int label;
};

std::vector<FireRecord> drive_reserved(std::uint32_t seed, LateMode mode,
                                       bool steps) {
  Simulator sim;
  std::mt19937 rng(seed);
  std::vector<FireRecord> log;
  std::vector<Late> unarmed;  // reserved, not yet armed
  std::deque<FnTimer> timers;  // one lane timer per armed late event
  int next_label = 0;

  const auto arm_all = [&] {
    for (const Late& late : unarmed) {
      if (mode == LateMode::kReserved) {
        const int label = late.label;
        timers
            .emplace_back(sim, [&log, &sim, label] {
              log.push_back({label, sim.now()});
            })
            .arm(late.key);
      }
    }
    unarmed.clear();
  };
  const auto schedule_late = [&](SimTime at) {
    const int label = 100000 + next_label++;
    if (mode == LateMode::kScheduled) {
      sim.schedule_at(at, [&log, &sim, label] {
        log.push_back({label, sim.now()});
      });
    } else {
      unarmed.push_back({sim.virtual_key(at, sim.position()), label});
    }
  };
  // Plain events log and sometimes decide on a late event and more plain
  // events at their own time, arming before they return.
  std::function<void(int)> fire = [&](int label) {
    log.push_back({label, sim.now()});
    if (label % 4 == 0) {
      schedule_late(sim.now() + label % 3);
      const int nested = next_label++;
      sim.schedule_in(label % 2, [&fire, nested] { fire(nested); });
      arm_all();
    }
  };

  for (int op = 0; op < 400; ++op) {
    switch (rng() % 6) {
      case 0:
      case 1: {  // plain event; small deltas force same-time ties
        const int label = next_label++;
        sim.schedule_in(static_cast<SimTime>(rng() % 4),
                        [&fire, label] { fire(label); });
        break;
      }
      case 2:
        schedule_late(sim.now() + static_cast<SimTime>(rng() % 4));
        break;
      case 3:  // drains arm first: a key must not be passed before arming
        arm_all();
        sim.run_until(sim.now() + static_cast<SimTime>(rng() % 3));
        break;
      case 4:
        arm_all();
        if (steps) sim.step();
        break;
      case 5:
        break;
    }
  }
  arm_all();
  sim.run();
  return log;
}

TEST(ReservedEvents, FireWhereAnEventScheduledAtReservationWould) {
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    const auto scheduled = drive_reserved(seed, LateMode::kScheduled, true);
    const auto reserved = drive_reserved(seed, LateMode::kReserved, true);
    EXPECT_EQ(scheduled, reserved) << "seed " << seed;
    // The workload does put late events at the same time as plain ones.
    const auto late_tie = [&scheduled](std::size_t i) {
      return i > 0 && scheduled[i].at == scheduled[i - 1].at &&
             (scheduled[i].label >= 100000) !=
                 (scheduled[i - 1].label >= 100000);
    };
    bool tie = false;
    for (std::size_t i = 0; i < scheduled.size(); ++i) tie = tie || late_tie(i);
    EXPECT_TRUE(tie) << "seed " << seed;
  }
}

TEST(ReservedEvents, UnarmedKeysLeaveEveryOtherEventInPlace) {
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    auto scheduled = drive_reserved(seed, LateMode::kScheduled, false);
    std::erase_if(scheduled,
                  [](const FireRecord& r) { return r.label >= 100000; });
    EXPECT_EQ(scheduled, drive_reserved(seed, LateMode::kUnarmed, false))
        << "seed " << seed;
  }
}

TEST(ReservedEvents, HasFiredTracksTheLastFiredKey) {
  Simulator sim;
  EXPECT_FALSE(sim.passed(sim.virtual_key(0, sim.position())));
  std::vector<bool> seen;
  Key key;
  const auto probe = [&] { seen.push_back(sim.passed(key)); };
  sim.schedule_at(9, probe);
  sim.schedule_at(10, probe);
  key = sim.virtual_key(10, sim.position());  // decided now, never armed
  sim.schedule_at(10, probe);
  sim.schedule_at(11, probe);
  sim.run();
  // Before the key (earlier time; same time, scheduled before it was
  // decided): not passed. After it (same time, scheduled after it was
  // decided; later time): passed.
  EXPECT_EQ(seen, (std::vector<bool>{false, false, true, true}));

  // An armed key reads passed from inside its own event.
  const Key own = sim.virtual_key(12, sim.position());
  FnTimer own_timer(sim, [&] { seen.push_back(sim.passed(own)); });
  own_timer.arm(own);
  sim.run();
  EXPECT_TRUE(seen.back());
  EXPECT_EQ(sim.position(), own);

  // run_until passes every key decided so far up to its deadline, even with
  // no event left to fire, but not later keys nor keys decided after it
  // returns.
  const Key early = sim.virtual_key(15, sim.position());
  const Key at_deadline = sim.virtual_key(20, sim.position());
  const Key late = sim.virtual_key(21, sim.position());
  sim.run_until(20);
  EXPECT_TRUE(sim.passed(early));
  EXPECT_TRUE(sim.passed(at_deadline));
  EXPECT_FALSE(sim.passed(late));
  const Key after = sim.virtual_key(20, sim.position());
  EXPECT_FALSE(sim.passed(after));
  own_timer.arm(after);
  EXPECT_EQ(sim.pending_events(), 1u);

  // reset forgets every passed key.
  sim.reset();
  EXPECT_FALSE(sim.passed(early));
  EXPECT_EQ(sim.position(), Key{});
}

TEST(ReservedEvents, ArmingAPassedOrUnreservedKeyThrows) {
  Simulator sim;
  FnTimer timer(sim, [] {});
  const Key early = sim.virtual_key(5, sim.position());
  const Key at_deadline = sim.virtual_key(10, sim.position());
  sim.run_until(10);
  EXPECT_THROW(timer.arm(early), util::CheckError);
  EXPECT_THROW(timer.arm(at_deadline), util::CheckError);

  // Same time as the firing event but decided before it was scheduled:
  // already passed.
  const Key tied = sim.virtual_key(12, sim.position());
  bool threw = false;
  sim.schedule_at(12, [&] {
    try {
      timer.arm(tied);
    } catch (const util::CheckError&) {
      threw = true;
    }
  });
  sim.run();
  EXPECT_TRUE(threw);

  // Keys virtual_key never made: a real key's shape, a tie above the seq
  // counter.
  Key real = sim.virtual_key(50, sim.position());
  real.at_tie -= 1;
  EXPECT_THROW(timer.arm(real), util::CheckError);
  Key ahead = sim.virtual_key(50, sim.position());
  ahead.at_tie += unsigned{1} << 24;
  EXPECT_THROW(timer.arm(ahead), util::CheckError);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A virtual event decided by a passed virtual parent sits where the parent
// would have decided it: after every real event scheduled before the kernel
// passed the parent, before every one scheduled after.
TEST(ReservedEvents, AChildOfAPassedKeyTiesWhereItsParentWasPassed) {
  Simulator sim;
  std::vector<int> fired;
  std::unique_ptr<FnTimer> timer;
  // The parent at 5 was decided before the events at 5 and 8 were
  // scheduled, so the kernel passed it before firing either of them.
  const Key parent = sim.virtual_key(5, sim.position());
  sim.schedule_at(5, [&] {
    fired.push_back(1);
    sim.schedule_at(8, [&] { fired.push_back(3); });
  });
  sim.schedule_at(8, [&] {
    fired.push_back(2);
    // Catching up now: the child at 8 goes after the event at 8 that was
    // scheduled before the parent was passed (this one), and before the
    // one the event at 5 scheduled.
    timer = std::make_unique<FnTimer>(sim, [&] { fired.push_back(4); });
    timer->arm(sim.virtual_key(8, parent));
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4, 3}));
}

// stop(): a callback ends the running run()/run_until() once it returns.
// Later events, and events at the same time scheduled after it, stay
// pending and fire in the next run exactly where they would have.
TEST(Stop, ReturnsAfterTheFiringEventAndLeavesTheRestPending) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(5, [&] { fired.push_back(1); });
  sim.schedule_at(10, [&] {
    fired.push_back(2);
    sim.stop();
    // Scheduled by the stopping event itself: pending, not fired.
    sim.schedule_at(10, [&] { fired.push_back(4); });
  });
  sim.schedule_at(10, [&] { fired.push_back(3); });  // co-timed, later seq
  sim.schedule_at(20, [&] { fired.push_back(5); });
  sim.run_until(100);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  // The clock stays at the stopping event; the deadline is not reached.
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.events_executed(), 2u);

  // The stop does not carry over: the next run_until resumes in {time, seq}
  // order and runs to its deadline.
  sim.run_until(100);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Stop, RunHonoursIt) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 1; i <= 4; ++i) {
    sim.schedule_at(i, [&fired, &sim, i] {
      fired.push_back(i);
      if (i == 2) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 2);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

// A stop requested before a run makes that run return at once: nothing
// fires and the clock does not move, not even to run_until's deadline. That
// run consumes the stop; reset() drops one still waiting.
TEST(Stop, ARequestBeforeARunEndsItAtOnceAndResetDropsIt) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5, [&] { ++fired; });
  sim.run_until(2);
  sim.stop();
  sim.run_until(50);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 2);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.stop();
  sim.run();
  EXPECT_EQ(fired, 0);
  // Consumed: the next run goes ahead.
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);

  // A stop from a callback that step() fires outside any run also waits
  // for the next run.
  sim.schedule_at(60, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(61, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 60);

  // reset drops a waiting stop along with the pending events.
  sim.stop();
  sim.reset();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.schedule_at(1, [&] { ++fired; });
  sim.schedule_at(2, [&] { ++fired; });
  sim.run_until(10);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.now(), 10);
}

// After a stopped run_until position() is the stopping event's key, not the
// deadline's: keys after it are still ahead of the kernel.
TEST(Stop, AStoppedRunUntilLeavesTheWatermarkAtTheStoppingEvent) {
  Simulator sim;
  const Key before = sim.virtual_key(7, sim.position());
  sim.schedule_at(7, [&] { sim.stop(); });
  const Key later = sim.virtual_key(7, sim.position());
  const Key far = sim.virtual_key(30, sim.position());
  sim.run_until(50);
  EXPECT_EQ(sim.now(), 7);
  EXPECT_TRUE(sim.passed(before));
  EXPECT_FALSE(sim.passed(later));
  EXPECT_FALSE(sim.passed(far));
  // So a key decided before the stop can still be armed inside the
  // deadline the stopped run never reached.
  bool armed_fired = false;
  FnTimer timer(sim, [&] { armed_fired = true; });
  timer.arm(far);
  sim.run_until(50);
  EXPECT_TRUE(armed_fired);
  EXPECT_EQ(sim.now(), 50);
}

// The timer lane against an all-heap replica. Actors own at most one
// pending event each, like a link direction's transmit-done or a cross-
// traffic source's next arrival. In kHeap mode an actor schedules a heap
// event when it decides on one; in kLane mode it takes its virtual key
// then and arms its lane timer, sometimes only after the deciding event has
// scheduled other (often co-timed) heap events. Plain heap events schedule,
// cancel, wake idle actors and stop the run; actors re-arm themselves. The
// workload mixes run_until, step, run, stop and one reset, after which the
// lane actors register again. Both modes must fire the same labels at the
// same times, in the same order, and agree on the clock, pending_events()
// and events_executed() at every checkpoint.
enum class Lane { kHeap, kTimers };

constexpr int kActorLabel = 100000;

class Actor {
 public:
  Actor(Simulator& sim, Lane mode, int index, std::vector<FireRecord>& log)
      : sim_(sim), mode_(mode), index_(index), log_(log) {
    if (mode_ == Lane::kTimers) timer_ = sim_.add_timer(&Actor::fire, this);
  }
  ~Actor() {
    if (mode_ == Lane::kTimers) sim_.remove_timer(timer_);
  }
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  bool idle() const { return !pending_ && !decided_; }
  // Decides on the actor's next event at `at`: its key is taken now.
  void decide(SimTime at) {
    decided_ = true;
    if (mode_ == Lane::kHeap) {
      sim_.schedule_at(at, [this] { fire(this); });
    } else {
      key_ = sim_.virtual_key(at, sim_.position());
    }
  }
  // Arms what decide() took; a no-op for the heap replica.
  void commit() {
    decided_ = false;
    pending_ = true;
    if (mode_ == Lane::kTimers) sim_.arm_timer(timer_, key_);
  }

 private:
  static void fire(void* self) {
    auto* actor = static_cast<Actor*>(self);
    actor->pending_ = false;
    actor->log_.push_back({kActorLabel + actor->index_, actor->sim_.now()});
    // Re-arm like an emitter, with equal-time re-arms, until every fifth
    // fire ends the chain.
    if (++actor->fires_ % 5 != 0) {
      actor->decide(actor->sim_.now() + actor->fires_ % 3);
      actor->commit();
    }
  }

  Simulator& sim_;
  Lane mode_;
  int index_;
  std::vector<FireRecord>& log_;
  TimerId timer_ = 0;
  Key key_;
  int fires_ = 0;
  bool pending_ = false;
  bool decided_ = false;
};

std::vector<FireRecord> drive_lane(std::uint32_t seed, Lane mode) {
  constexpr int kActors = 6;
  Simulator sim;
  std::mt19937 rng(seed);
  std::vector<FireRecord> log;
  std::vector<EventId> ids;
  std::deque<Actor> actors;
  const auto register_actors = [&] {
    actors.clear();
    for (int i = 0; i < kActors; ++i) actors.emplace_back(sim, mode, i, log);
  };
  register_actors();
  int next_label = 0;
  const auto checkpoint = [&] {
    log.push_back({-1, sim.now()});
    log.push_back({-2, static_cast<SimTime>(sim.pending_events())});
    log.push_back({-3, static_cast<SimTime>(sim.events_executed())});
  };

  std::function<void(int)> fire = [&](int label) {
    log.push_back({label, sim.now()});
    Actor& actor = actors[static_cast<std::size_t>(label) % kActors];
    if (label % 4 == 0 && actor.idle()) {
      // Decide on the actor's event, schedule a co-timed heap event after
      // it, then arm: the heap event has the later seq in both modes.
      actor.decide(sim.now() + label % 3);
      const int nested = next_label++;
      ids.push_back(
          sim.schedule_in(label % 3, [&fire, nested] { fire(nested); }));
      actor.commit();
    } else if (label % 3 == 0) {
      const int nested = next_label++;
      ids.push_back(
          sim.schedule_in(label % 2, [&fire, nested] { fire(nested); }));
    }
    if (label % 5 == 0 && !ids.empty()) {
      sim.cancel(ids[static_cast<std::size_t>(label) % ids.size()]);
    }
    if (label % 23 == 0) sim.stop();
  };

  for (int op = 0; op < 500; ++op) {
    if (op == 250) {
      sim.reset();
      ids.clear();
      register_actors();
      checkpoint();
    }
    switch (rng() % 8) {
      case 0:
      case 1: {  // heap event; small deltas force same-time ties
        const int label = next_label++;
        ids.push_back(sim.schedule_in(static_cast<SimTime>(rng() % 4),
                                      [&fire, label] { fire(label); }));
        break;
      }
      case 2: {  // wake an idle actor from outside any event
        Actor& actor = actors[rng() % kActors];
        const auto delta = static_cast<SimTime>(rng() % 4);
        if (actor.idle()) {
          actor.decide(sim.now() + delta);
          actor.commit();
        }
        break;
      }
      case 3:
        if (!ids.empty()) sim.cancel(ids[rng() % ids.size()]);
        break;
      case 4:
        sim.run_until(sim.now() + static_cast<SimTime>(rng() % 5));
        checkpoint();
        break;
      case 5:
        sim.step();
        break;
      case 6:
        if (rng() % 3 == 0) sim.run();
        checkpoint();
        break;
      case 7:
        if (rng() % 5 == 0) sim.stop();  // the next run returns at once
        break;
    }
  }
  sim.run();
  sim.run();  // a stop left waiting by the last run's events
  checkpoint();
  return log;
}

TEST(TimerLane, FiresInTheOrderOfAnAllHeapKernel) {
  std::size_t lane_first = 0;
  std::size_t heap_first = 0;
  for (std::uint32_t seed = 1; seed <= 30; ++seed) {
    const auto heap = drive_lane(seed, Lane::kHeap);
    const auto lane = drive_lane(seed, Lane::kTimers);
    ASSERT_EQ(heap.size(), lane.size()) << "seed " << seed;
    for (std::size_t i = 0; i < heap.size(); ++i) {
      ASSERT_EQ(heap[i], lane[i])
          << "seed " << seed << " diverged at record #" << i << ": heap {"
          << heap[i].label << " @ " << heap[i].at << "} vs lane {"
          << lane[i].label << " @ " << lane[i].at << "}";
    }
    for (std::size_t i = 1; i < heap.size(); ++i) {
      if (heap[i].label < 0 || heap[i - 1].label < 0 ||
          heap[i].at != heap[i - 1].at) {
        continue;
      }
      const bool prev_actor = heap[i - 1].label >= kActorLabel;
      const bool actor = heap[i].label >= kActorLabel;
      if (prev_actor && !actor) ++lane_first;
      if (!prev_actor && actor) ++heap_first;
    }
  }
  // Equal-time ties between lane and heap events, on both sides.
  EXPECT_GT(lane_first, 100u);
  EXPECT_GT(heap_first, 100u);
}

TEST(TimerLane, CountsAsPendingAndExecutedAndSetsTheClock) {
  Simulator sim;
  std::vector<SimTime> fired;
  FnTimer timer(sim, [&] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.pending_events(), 0u);
  timer.arm_at(40);
  EXPECT_THROW(timer.arm_at(50), util::CheckError);
  sim.schedule_at(40, [&] { fired.push_back(-sim.now()); });
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.heap_size(), 1u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, (std::vector<SimTime>{40}));
  EXPECT_EQ(sim.now(), 40);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(60);
  EXPECT_EQ(fired, (std::vector<SimTime>{40, -40}));

  // A timer armed past a run_until deadline stays pending, and one armed
  // at the deadline fires.
  timer.arm_at(70);
  sim.run_until(69);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(70);
  EXPECT_EQ(fired.back(), 70);
  EXPECT_EQ(sim.now(), 70);
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_FALSE(sim.step());
}

TEST(TimerLane, StopFromATimerLeavesTheRestPending) {
  Simulator sim;
  std::vector<int> fired;
  FnTimer stopper(sim, [&] {
    fired.push_back(1);
    sim.stop();
  });
  FnTimer later(sim, [&] { fired.push_back(3); });
  stopper.arm_at(10);
  sim.schedule_at(10, [&] { fired.push_back(2); });  // co-timed, later seq
  later.arm_at(10);
  sim.run_until(100);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.pending_events(), 2u);
  // The stopping timer can be armed again at once, before the rest.
  stopper.arm_at(10);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 1}));
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TimerLane, RemoveAndResetDropTimers) {
  Simulator sim;
  int fired = 0;
  std::vector<SimTime> at;
  auto a = std::make_unique<FnTimer>(sim, [&] { ++fired; });
  FnTimer b(sim, [&] {
    ++fired;
    at.push_back(sim.now());
  });
  auto mid = std::make_unique<FnTimer>(sim, [&] { ++fired; });
  FnTimer last(sim, [&] {
    ++fired;
    at.push_back(sim.now());
  });
  last.arm_at(9);
  a->arm_at(5);
  mid->arm_at(7);
  b.arm_at(6);
  EXPECT_EQ(sim.pending_events(), 4u);
  a.reset();  // the owner dies with its timer armed, the next to fire
  mid.reset();  // and one armed between two others
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(at, (std::vector<SimTime>{6, 9}));

  // A freed lane entry is reused; ids from before a reset are stale.
  FnTimer c(sim, [&] { ++fired; });
  EXPECT_NE(c.id(), b.id());
  c.arm_at(12);
  sim.reset();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_THROW(c.arm_at(1), util::CheckError);
  FnTimer d(sim, [&] { ++fired; });
  EXPECT_NE(d.id(), c.id());
  d.arm_at(3);
  sim.remove_timer(b.id());  // stale: leaves d alone
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 3);
}

}  // namespace
}  // namespace rv::sim
