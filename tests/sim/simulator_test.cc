#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"

namespace nbraft::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim(1);
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.At(Millis(30), [&] { order.push_back(3); });
  sim.At(Millis(10), [&] { order.push_back(1); });
  sim.At(Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Millis(30));
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator sim(1);
  sim.At(Millis(10), [&] {
    sim.After(Millis(5), [&] { EXPECT_EQ(sim.Now(), Millis(15)); });
  });
  sim.Run();
  EXPECT_EQ(sim.Now(), Millis(15));
}

TEST(SimulatorTest, PastTimesClampToNow) {
  Simulator sim(1);
  sim.At(Millis(10), [&] {
    sim.At(Millis(1), [&] { EXPECT_EQ(sim.Now(), Millis(10)); });
  });
  sim.Run();
}

TEST(SimulatorTest, NegativeDelayClampsToZero) {
  Simulator sim(1);
  bool fired = false;
  sim.After(-100, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), 0);
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim(1);
  bool fired = false;
  const EventId id = sim.At(Millis(1), [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelUnknownIdIsNoop) {
  Simulator sim(1);
  sim.Cancel(9999);
  sim.Cancel(kInvalidEventId);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(SimulatorTest, CancelFromInsideEvent) {
  Simulator sim(1);
  bool fired = false;
  const EventId victim = sim.At(Millis(2), [&] { fired = true; });
  sim.At(Millis(1), [&] { sim.Cancel(victim); });
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim(1);
  std::vector<int> fired;
  sim.At(Millis(10), [&] { fired.push_back(10); });
  sim.At(Millis(20), [&] { fired.push_back(20); });
  sim.At(Millis(30), [&] { fired.push_back(30); });
  sim.RunUntil(Millis(20));
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.Now(), Millis(20));
  sim.RunUntil(Millis(100));
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(sim.Now(), Millis(100));
}

TEST(SimulatorTest, RunUntilAdvancesTimeWithoutEvents) {
  Simulator sim(1);
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim(1);
  EXPECT_FALSE(sim.Step());
  sim.At(0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, RunWithEventLimit) {
  Simulator sim(1);
  int count = 0;
  for (int i = 0; i < 10; ++i) sim.At(i, [&] { ++count; });
  sim.Run(3);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim(1);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.After(Micros(1), chain);
  };
  sim.After(0, chain);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), Micros(99));
}

TEST(SimulatorTest, RngIsDeterministicPerSeed) {
  Simulator a(42);
  Simulator b(42);
  EXPECT_EQ(a.rng()->Next(), b.rng()->Next());
}

TEST(SimulatorTest, CancelAlreadyFiredIdIsNoop) {
  Simulator sim(1);
  int fired = 0;
  const EventId id = sim.At(Millis(1), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Cancel(id);  // Stale: the event already fired.
  // The slot is free now; a new event that reuses it must be unaffected
  // by cancels addressed to the old generation.
  bool second = false;
  sim.At(Millis(2), [&] { second = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_TRUE(second);
}

TEST(SimulatorTest, DoubleCancelIsNoop) {
  Simulator sim(1);
  bool fired = false;
  const EventId id = sim.At(Millis(1), [&] { fired = true; });
  sim.Cancel(id);
  sim.Cancel(id);  // Second cancel must not free the slot twice.
  // Two fresh events exercise the free list after the double cancel.
  int count = 0;
  sim.At(Millis(2), [&] { ++count; });
  sim.At(Millis(3), [&] { ++count; });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, CancelOwnIdFromInsideCallbackIsNoop) {
  Simulator sim(1);
  EventId self = kInvalidEventId;
  bool fired = false;
  self = sim.At(Millis(1), [&] {
    fired = true;
    sim.Cancel(self);  // Already running: must be a no-op, not a corruption.
  });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CallbackCanScheduleIntoItsOwnRetiredSlot) {
  Simulator sim(1);
  // The firing event's slot is retired before the callback runs, so a
  // reschedule from inside the callback may reuse that very slot. The new
  // event must be distinct and cancellable independently.
  std::vector<EventId> ids;
  bool relay = false;
  ids.push_back(sim.At(Millis(1), [&] {
    ids.push_back(sim.After(Millis(1), [&] { relay = true; }));
  }));
  sim.Run();
  EXPECT_TRUE(relay);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], ids[1]);
}

TEST(SimulatorTest, PendingEventsTracksScheduleCancelAndFire) {
  Simulator sim(1);
  EXPECT_EQ(sim.pending_events(), 0u);
  const EventId a = sim.At(Millis(1), [] {});
  sim.At(Millis(2), [] {});
  const EventId c = sim.At(Millis(3), [] {});
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(c);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(SimulatorTest, ManyCancelledHeadsDoNotStallRunUntil) {
  Simulator sim(1);
  // A pile of cancelled events at the head of the queue must be reaped
  // lazily without firing or advancing time past the boundary.
  std::vector<EventId> ids;
  ids.reserve(100);
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.At(Millis(1), [&] { ++fired; }));
  }
  sim.At(Millis(2), [&] { fired += 1000; });
  for (const EventId id : ids) sim.Cancel(id);
  sim.RunUntil(Millis(1));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.Now(), Millis(1));
  sim.RunUntil(Millis(2));
  EXPECT_EQ(fired, 1000);
}

TEST(SimulatorTest, ProcessedCountsFiredEventsOnly) {
  Simulator sim(1);
  const EventId id = sim.At(1, [] {});
  sim.At(2, [] {});
  sim.Cancel(id);
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(SimulatorTest, CancelChurnKeepsHeapBounded) {
  // The protocol's timer pattern: every request re-arms the election timer
  // (500-1000 ms), arms an RPC timeout (400 ms) that the ack cancels, and
  // arms a client timeout that the reply usually cancels. Cancelled
  // deadlines lie far beyond the events that advance time, so an
  // unbounded heap would hold ~3 dead records per request.
  Simulator sim(7);
  Rng rng(42);
  using Key = std::pair<SimTime, uint64_t>;  // (when, insertion order).
  std::multimap<Key, int> oracle;
  std::map<int, std::pair<EventId, Key>> armed;  // Cancellable, by label.
  std::vector<int> fired;
  uint64_t inserted = 0;
  int next_label = 0;

  const auto check_bound = [&] {
    ASSERT_LE(sim.heap_records(),
              2 * sim.pending_events() + Simulator::kHeapSlack);
  };
  const auto schedule = [&](SimDuration delay, bool cancellable) {
    const int label = next_label++;
    const Key key{sim.Now() + delay, inserted++};
    const EventId id = sim.After(delay, [&fired, label] {
      fired.push_back(label);
    });
    oracle.emplace(key, label);
    if (cancellable) armed.emplace(label, std::make_pair(id, key));
    return label;
  };
  const auto cancel = [&](int label) {
    const auto it = armed.find(label);
    if (it == armed.end()) return;  // Already fired.
    sim.Cancel(it->second.first);
    const auto range = oracle.equal_range(it->second.second);
    for (auto o = range.first; o != range.second; ++o) {
      if (o->second == label) {
        oracle.erase(o);
        break;
      }
    }
    armed.erase(it);
  };
  const auto step = [&] {
    ASSERT_TRUE(sim.Step());
    ASSERT_FALSE(oracle.empty());
    ASSERT_EQ(fired.back(), oracle.begin()->second);
    armed.erase(fired.back());
    oracle.erase(oracle.begin());
  };

  int election = schedule(Millis(500), true);
  std::deque<int> rpc_timeouts;
  std::deque<int> client_timeouts;
  size_t max_records = 0;
  for (int i = 0; i < 20000; ++i) {
    schedule(Micros(static_cast<int64_t>(rng.NextBounded(200))), false);
    check_bound();
    cancel(election);
    check_bound();
    election = schedule(Millis(rng.NextInRange(500, 1000)), true);
    check_bound();
    rpc_timeouts.push_back(schedule(Millis(400), true));
    if (rpc_timeouts.size() > 4) {
      cancel(rpc_timeouts.front());
      rpc_timeouts.pop_front();
      check_bound();
    }
    client_timeouts.push_back(
        schedule(Millis(rng.NextInRange(1000, 2000)), true));
    if (client_timeouts.size() > 8 && rng.NextBool(0.95)) {
      const size_t victim = rng.NextBounded(client_timeouts.size());
      cancel(client_timeouts[victim]);
      client_timeouts.erase(client_timeouts.begin() +
                            static_cast<std::ptrdiff_t>(victim));
      check_bound();
    }
    step();
    check_bound();
    ASSERT_FALSE(HasFatalFailure()) << "iteration " << i;
    if (max_records < sim.heap_records()) max_records = sim.heap_records();
  }
  while (!oracle.empty()) {
    step();
    check_bound();
    ASSERT_FALSE(HasFatalFailure());
  }
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(fired.size(), sim.events_processed());
  // ~60k timers were cancelled; the heap stayed near the live set.
  EXPECT_LT(max_records, 4 * Simulator::kHeapSlack);
}

}  // namespace
}  // namespace nbraft::sim
