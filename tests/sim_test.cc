#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace rv::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_in(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_NO_THROW(sim.cancel(id));
  EXPECT_NO_THROW(sim.cancel(kInvalidEventId));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(10, [&] { ++count; });
  sim.schedule_at(20, [&] { ++count; });
  sim.schedule_at(30, [&] { ++count; });
  sim.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(50, [] {}), util::CheckError);
  EXPECT_THROW(sim.schedule_in(-1, [] {}), util::CheckError);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_in(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

TEST(Simulator, CallbackThatAddsChunksKeepsItsSlotAndTheOrder) {
  // A callback fires in place, inside its slot. Scheduling more than two
  // chunks of events from it adds chunks while it runs: its captures must
  // stay where they are (the sanitizer build sees a read of a moved slot),
  // and everything it scheduled must fire in {time, seq} order.
  Simulator sim;
  constexpr int kEvents = 2500;  // slots for more than two 1024-slot chunks
  static constexpr std::array<std::uint32_t, 6> kTag{3, 1, 4, 1, 5, 9};
  std::vector<std::pair<SimTime, int>> fired;
  auto grow = [&sim, &fired, tag = kTag] {
    for (int i = 0; i < kEvents; ++i) {
      sim.schedule_at(10 + (i * 37) % 101,
                      [&sim, &fired, i] { fired.emplace_back(sim.now(), i); });
    }
    EXPECT_EQ(tag, kTag);
    fired.emplace_back(sim.now(), -1);
  };
  static_assert(sizeof(grow) <= EventFn::inline_capacity(),
                "the captures must live in the slot itself");
  sim.schedule_at(10, grow);
  sim.run();
  EXPECT_GT(sim.slot_capacity(), 2048u);

  std::vector<std::pair<SimTime, int>> expected{{10, -1}};
  for (int i = 0; i < kEvents; ++i) {
    expected.emplace_back(10 + (i * 37) % 101, i);
  }
  std::sort(expected.begin() + 1, expected.end());
  EXPECT_EQ(fired, expected);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(5, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, PendingEventsAccountsForCancellations) {
  Simulator sim;
  const EventId a = sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, SameTimestampFifoAcrossDeepHeap) {
  // Enough same-timestamp events to span several levels of the 4-ary heap,
  // interleaved with earlier and later times, so sift-up/sift-down must
  // preserve the sequence-number tie-break rather than relying on insertion
  // position.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 500; ++i) {
    sim.schedule_at(1000, [&order, i] { order.push_back(i); });
    if (i % 7 == 0) sim.schedule_at(10 + i, [] {});
    if (i % 11 == 0) sim.schedule_at(2000 + i, [] {});
  }
  sim.run();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, SlotsAreReusedAfterCancel) {
  // Slot-pool growth is bounded by peak *pending* events: scheduling and
  // cancelling in waves must recycle slots, not allocate new ones.
  Simulator sim;
  for (int wave = 0; wave < 100; ++wave) {
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i) {
      ids.push_back(sim.schedule_at(wave + 1, [] {}));
    }
    for (const EventId id : ids) sim.cancel(id);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.slot_capacity(), 8u);
  sim.run();
}

TEST(Simulator, SlotsAreReusedAfterFire) {
  Simulator sim;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(i, [] {});
    sim.run();
  }
  EXPECT_EQ(sim.slot_capacity(), 1u);
}

TEST(Simulator, StaleCancelsLeaveNoState) {
  // Regression test for the old kernel's leak: cancelling an id that already
  // fired inserted a tombstone into a set that nothing would ever drain.
  // Cancel must be a true no-op for stale ids — no heap entries, no slots,
  // no pending-count drift, even after many such cancels.
  Simulator sim;
  std::vector<EventId> fired_ids;
  for (int i = 0; i < 200; ++i) {
    fired_ids.push_back(sim.schedule_at(i, [] {}));
  }
  sim.run();
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const EventId id : fired_ids) sim.cancel(id);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.heap_size(), 0u);
  // A live event scheduled after the stale-cancel storm is unaffected.
  bool fired = false;
  sim.schedule_at(1000, [&] { fired = true; });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, StaleCancelDoesNotHitRecycledSlot) {
  // After an event fires, its slot is recycled for the next event. The old
  // id's generation is stale; cancelling it must not cancel the slot's new
  // occupant.
  Simulator sim;
  const EventId old_id = sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_EQ(sim.slot_capacity(), 1u);
  bool fired = false;
  sim.schedule_at(20, [&] { fired = true; });  // reuses the slot
  sim.cancel(old_id);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelInsideEventOfPendingEvent) {
  // In-flight cancellation: an event cancels a later, still-pending event
  // while the kernel is mid-step.
  Simulator sim;
  bool late_fired = false;
  const EventId late = sim.schedule_at(100, [&] { late_fired = true; });
  sim.schedule_at(50, [&] { sim.cancel(late); });
  sim.run();
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelOwnIdInsideEventIsNoop) {
  // By the time a callback runs, its own event has fired; the id is stale.
  Simulator sim;
  EventId self = kInvalidEventId;
  int count = 0;
  self = sim.schedule_at(10, [&] {
    ++count;
    sim.cancel(self);
  });
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.heap_size(), 0u);
}

TEST(Simulator, CancelledTombstonesDrainAtPop) {
  // A cancelled event's heap entry stays behind as a tombstone until it
  // surfaces, mirroring the lazy-delete timing of the original kernel.
  Simulator sim;
  const EventId a = sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  sim.cancel(a);
  EXPECT_EQ(sim.heap_size(), 2u);  // tombstone still in the heap
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.step());  // skips the tombstone, fires the live event
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.heap_size(), 0u);
}

TEST(Simulator, RunUntilCancelledHeadDoesNotAdmitALaterEvent) {
  // run_until skips cancelled entries before it compares the deadline, so
  // a cancelled entry at or before the deadline never lets a live event
  // past it fire. (The seed kernel inspected the raw heap head and did
  // fire it; the study never reached that case.)
  Simulator sim;
  bool late_fired = false;
  const EventId head = sim.schedule_at(10, [] {});
  sim.schedule_at(100, [&] { late_fired = true; });
  sim.cancel(head);
  sim.run_until(50);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(100);
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, MoveOnlyCapturesAreSupported) {
  // EventFn (unlike std::function) accepts move-only callables, which is
  // what lets owned packets travel inside delivery closures.
  Simulator sim;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  sim.schedule_at(10, [&seen, p = std::move(payload)] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, ResetRestoresFreshState) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5, [&fired] { ++fired; });
  sim.schedule_at(9, [&fired] { ++fired; });
  const EventId id = sim.schedule_at(7, [&fired] { ++fired; });
  sim.cancel(id);
  sim.run_until(6);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);

  sim.reset();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.heap_size(), 0u);

  // After reset the simulator schedules from t=0 again and fires in order,
  // exactly like a fresh one (the per-worker context contract).
  std::vector<int> order;
  sim.schedule_at(3, [&order] { order.push_back(3); });
  sim.schedule_at(1, [&order] { order.push_back(1); });
  sim.schedule_at(2, [&order] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(fired, 1);  // pre-reset events never fire
}

TEST(Simulator, ResetReleasesPendingCaptures) {
  // Pending callbacks are destroyed on reset, so owning captures (pooled
  // packets on the real forwarding path) go back where they belong instead
  // of leaking until the context dies.
  Simulator sim;
  auto token = std::make_shared<int>(42);
  sim.schedule_at(100, [token] { (void)*token; });
  sim.schedule_at(200, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 3);
  sim.reset();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, ResetIsDeterministicallyEquivalentToFresh) {
  // Same schedule, one simulator reset in between vs. two fresh simulators:
  // identical firing sequences (seq numbers and generations restart).
  const auto drive = [](Simulator& sim, std::vector<std::int64_t>& log) {
    for (int i = 0; i < 50; ++i) {
      const SimTime at = (i * 37) % 100;
      sim.schedule_at(at, [&log, &sim] { log.push_back(sim.now()); });
    }
    sim.run();
  };
  Simulator reused;
  std::vector<std::int64_t> first, second, fresh;
  drive(reused, first);
  reused.reset();
  drive(reused, second);
  Simulator pristine;
  drive(pristine, fresh);
  EXPECT_EQ(first, second);
  EXPECT_EQ(second, fresh);
}

TEST(EventFn, SmallCallablesStayInline) {
  // The forwarding path's delivery closures must fit the inline buffer —
  // steady-state event scheduling allocates nothing.
  struct {
    void* a;
    void* b;
    std::uint64_t c;
  } capture = {nullptr, nullptr, 7};
  EventFn fn([capture] { (void)capture; });
  EXPECT_TRUE(fn.is_inline());
  EventFn moved = std::move(fn);
  EXPECT_TRUE(moved.is_inline());
}

TEST(EventFn, OversizedCallablesSpillToHeap) {
  struct {
    unsigned char big[EventFn::inline_capacity() + 1];
  } capture = {};
  EventFn fn([capture] { (void)capture; });
  EXPECT_FALSE(fn.is_inline());
  bool ran = false;
  EventFn target([&ran] { ran = true; });
  target = std::move(fn);  // heap case: pointer steal, no allocation
  EXPECT_FALSE(target.is_inline());
}

}  // namespace
}  // namespace rv::sim
