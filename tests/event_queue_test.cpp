// Determinism pins for the calendar-queue scheduler and the intrusive
// Event wait cells.
//
// The calendar queue replaced the seed's std::priority_queue<QueuedEvent>;
// its contract is that events pop in exactly the same (time, seq) total
// order the heap gave. A reference heap lives here (and only here) so
// randomized schedules can be checked op-for-op against it — if the two
// ever disagree, the simulator's bit-reproducibility is gone even when no
// unit test of the kernel notices.
#include "simcore/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "simcore/simulation.hpp"

namespace strings::sim {
namespace {

/// The seed kernel's ordering, verbatim: a binary min-heap on (time, seq).
/// Payload is the (time, seq, weak) triple — the CalendarQueue's SmallFn
/// is irrelevant to ordering, so the reference carries none.
struct RefKey {
  SimTime time;
  std::uint64_t seq;
  bool weak;
  bool operator>(const RefKey& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};
using RefHeap =
    std::priority_queue<RefKey, std::vector<RefKey>, std::greater<RefKey>>;

void push_both(CalendarQueue& q, RefHeap& ref, SimTime time, std::uint64_t seq,
               bool weak = false) {
  q.push(time, seq, [] {}, weak);
  ref.push(RefKey{time, seq, weak});
}

/// Pops one event from each and asserts the full key matches.
void pop_and_compare(CalendarQueue& q, RefHeap& ref) {
  ASSERT_FALSE(q.empty());
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(q.min_time(), ref.top().time);
  const EventRecord got = q.pop();
  const RefKey want = ref.top();
  ref.pop();
  ASSERT_EQ(got.time, want.time);
  ASSERT_EQ(got.seq, want.seq);
  ASSERT_EQ(got.weak, want.weak);
}

TEST(CalendarQueue, FifoTieBreakWithinEqualTimestamps) {
  CalendarQueue q;
  RefHeap ref;
  // A same-timestamp burst: FIFO order must fall out of seq alone.
  std::uint64_t seq = 0;
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 50; ++i) push_both(q, ref, usec(10) * burst, seq++);
  }
  while (!q.empty()) pop_and_compare(q, ref);
  EXPECT_TRUE(ref.empty());
}

TEST(CalendarQueue, RandomizedSchedulesMatchReferenceHeap) {
  // Several deterministic seeds x several time distributions. Pushes are
  // interleaved with pops (never below the popped floor, as in the real
  // kernel where schedule() uses now() + delay).
  for (std::uint32_t seed : {1u, 7u, 1234u, 987654u}) {
    std::mt19937 rng(seed);
    CalendarQueue q;
    RefHeap ref;
    SimTime floor = 0;
    std::uint64_t seq = 0;
    std::uniform_int_distribution<int> op(0, 9);
    // Gap distributions: dense ties, microsecond steady state, and
    // second-scale outliers (the startup-burst shape that forces retunes).
    std::uniform_int_distribution<SimTime> dense(0, 3);
    std::uniform_int_distribution<SimTime> steady(1, usec(5));
    std::uniform_int_distribution<SimTime> sparse(msec(1), SimTime{2} * sec(1));
    for (int step = 0; step < 20000; ++step) {
      if (op(rng) < 6 || q.empty()) {
        const int mode = op(rng);
        const SimTime gap = mode < 5   ? dense(rng)
                            : mode < 9 ? steady(rng)
                                       : sparse(rng);
        const std::uint64_t s = seq++;
        push_both(q, ref, floor + gap, s, /*weak=*/(s % 7) == 0);
      } else {
        EXPECT_EQ(ref.top().time, q.min_time());
        floor = ref.top().time;
        pop_and_compare(q, ref);
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!q.empty()) pop_and_compare(q, ref);
  }
}

TEST(CalendarQueue, SurvivesHorizonShift) {
  // Width tuned by a seconds-wide startup burst, then a microsecond-dense
  // steady state lands in one fat bucket: the retune path must fire and the
  // order must stay exact.
  CalendarQueue q;
  RefHeap ref;
  std::uint64_t seq = 0;
  for (int i = 0; i < 64; ++i) push_both(q, ref, sec(1) * i, seq++);
  for (int i = 0; i < 64; ++i) pop_and_compare(q, ref);
  const SimTime base = sec(63);
  for (int i = 0; i < 512; ++i) push_both(q, ref, base + i % 17, seq++);
  while (!q.empty()) pop_and_compare(q, ref);
}

TEST(CalendarQueue, SkewedHorizonStaysShallow) {
  // The open-loop churn shape: a few tenant timers seconds out stretch the
  // event horizon while a dense microsecond stream, pushed out of order,
  // carries the real work. A width taken from the whole span puts the
  // entire stream in one bucket, and every insert shifts it; a width taken
  // from the near events keeps buckets a few keys deep.
  std::mt19937 rng(11);
  CalendarQueue q;
  RefHeap ref;
  std::uint64_t seq = 0;
  for (int i = 1; i <= 6; ++i) {
    push_both(q, ref, sec(2) * i, seq++, /*weak=*/i % 2 == 0);
  }
  std::uniform_int_distribution<SimTime> jitter(0, usec(40));
  for (int i = 0; i < 384; ++i) push_both(q, ref, jitter(rng), seq++);
  for (int step = 0; step < 50000; ++step) {
    const SimTime floor = ref.top().time;
    pop_and_compare(q, ref);
    push_both(q, ref, floor + jitter(rng), seq++);
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!q.empty()) pop_and_compare(q, ref);
  const CalendarQueue::Stats& st = q.stats();
  EXPECT_LE(st.shifted, 4 * st.pushes)
      << st.shifted << " keys shifted over " << st.pushes << " pushes";
}

TEST(CalendarQueue, PendingClosuresDestroyedOnceAtTeardown) {
  // Closures live in a slot pool; popped slots are reused. Whatever is
  // still queued when the queue dies must be destroyed exactly once.
  auto token = std::make_shared<int>(0);
  {
    CalendarQueue q;
    std::uint64_t seq = 0;
    for (int i = 0; i < 100; ++i) {
      q.push(usec(i % 13), seq++, [token] { ++*token; }, false);
    }
    for (int i = 0; i < 60; ++i) q.pop().fn();
    for (int i = 0; i < 30; ++i) {
      q.push(usec(20 + i), seq++, [token] { ++*token; }, false);
    }
    EXPECT_EQ(token.use_count(), 1 + 70);
  }
  EXPECT_EQ(*token, 60);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulation, SameTimestampCallbacksRunInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    sim.schedule(usec(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  std::vector<int> want(32);
  for (int i = 0; i < 32; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, want);
}

TEST(Simulation, WeakEventsDoNotKeepRunAlive) {
  Simulation sim;
  std::vector<int> ran;
  sim.schedule_weak(usec(5), [&] { ran.push_back(5); });   // before the work
  sim.schedule(usec(10), [&] { ran.push_back(10); });      // the real work
  sim.schedule_weak(usec(20), [&] { ran.push_back(20); }); // past the drain
  sim.run();
  EXPECT_EQ(ran, (std::vector<int>{5, 10}));
  EXPECT_EQ(sim.now(), usec(10));
}

TEST(Simulation, RunUntilBoundaryIsInclusive) {
  Simulation sim;
  std::vector<int> ran;
  sim.schedule(usec(10), [&] { ran.push_back(10); });
  sim.schedule(usec(20), [&] { ran.push_back(20); });
  // Events with timestamp == t run; now() lands exactly on t; the return
  // value reports whether non-weak work remains beyond t.
  EXPECT_TRUE(sim.run_until(usec(10)));
  EXPECT_EQ(ran, (std::vector<int>{10}));
  EXPECT_EQ(sim.now(), usec(10));
  EXPECT_FALSE(sim.run_until(usec(20)));
  EXPECT_EQ(ran, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), usec(20));
  // Advancing over an empty queue still moves the clock.
  EXPECT_FALSE(sim.run_until(usec(30)));
  EXPECT_EQ(sim.now(), usec(30));
}

TEST(Simulation, RunUntilLeavesRoomBeforeLaterEvents) {
  // run_until peeks at an event past its horizon; events scheduled after it
  // returns, between the horizon and that event, must still run first.
  Simulation sim;
  std::vector<int> ran;
  sim.schedule(sec(10), [&] { ran.push_back(10); });
  EXPECT_TRUE(sim.run_until(sec(1)));
  sim.schedule(usec(1) + 3, [&] { ran.push_back(1); });
  sim.run();
  EXPECT_EQ(ran, (std::vector<int>{1, 10}));
}

// The intrusive wait cells replaced shared_ptr<WaitCell> tombstones:
// waiter_count() must now be exact at every instant (timed-out waiters are
// erased eagerly), notify_one must stay FIFO, and kills/timeouts must not
// leave dangling entries. Randomized rounds shake all three paths together.
TEST(Event, WaiterCountStress) {
  for (std::uint32_t seed : {3u, 42u, 20260808u}) {
    std::mt19937 rng(seed);
    Simulation sim;
    Event ev(sim);
    int woken = 0, timed_out = 0, alive = 0;
    std::vector<int> wake_order;
    constexpr int kWaiters = 64;
    for (int i = 0; i < kWaiters; ++i) {
      const SimTime timeout =
          (rng() % 3 == 0) ? usec(50 + static_cast<SimTime>(rng() % 200))
                           : kNever;
      sim.spawn("waiter" + std::to_string(i), [&, i, timeout] {
        ++alive;
        if (ev.wait_for(timeout)) {
          ++woken;
          wake_order.push_back(i);
        } else {
          ++timed_out;
        }
        --alive;
      });
    }
    sim.spawn("notifier", [&] {
      sim.wait_for(usec(10));
      // All waiters are parked by now; the count must be exact.
      EXPECT_EQ(ev.waiter_count(), kWaiters);
      std::uniform_int_distribution<SimTime> gap(1, usec(40));
      while (ev.waiter_count() > 0) {
        sim.wait_for(gap(rng));
        const int before = ev.waiter_count();
        if (rng() % 4 == 0) {
          ev.notify_all();
          EXPECT_EQ(ev.waiter_count(), 0);
        } else {
          ev.notify_one();
          EXPECT_EQ(ev.waiter_count(), before - 1);
        }
      }
    });
    sim.run();
    EXPECT_EQ(woken + timed_out, kWaiters);
    EXPECT_EQ(alive, 0);
    EXPECT_EQ(ev.waiter_count(), 0);
    // FIFO: of the waiters woken by notify, spawn order is wake order
    // (timed-out waiters drop out but never reorder the survivors).
    EXPECT_TRUE(std::is_sorted(wake_order.begin(), wake_order.end()));
  }
}

TEST(Event, NotifyOneSkipsNothingAfterTimeouts) {
  Simulation sim;
  Event ev(sim);
  std::vector<int> wake_order;
  // Odd waiters time out at 10us; notify starts at 20us. The eager erase
  // must leave the even waiters contiguous and in FIFO order.
  for (int i = 0; i < 10; ++i) {
    sim.spawn("w" + std::to_string(i), [&, i] {
      const bool notified = ev.wait_for(i % 2 == 1 ? usec(10) : kNever);
      EXPECT_EQ(notified, i % 2 == 0);
      if (notified) wake_order.push_back(i);
    });
  }
  sim.spawn("notifier", [&] {
    sim.wait_for(usec(20));
    EXPECT_EQ(ev.waiter_count(), 5);
    while (ev.waiter_count() > 0) {
      ev.notify_one();
      sim.wait_for(usec(1));
    }
  });
  sim.run();
  EXPECT_EQ(wake_order, (std::vector<int>{0, 2, 4, 6, 8}));
}

}  // namespace
}  // namespace strings::sim
