// Unit tests for the discrete-event scheduler: ordering, determinism,
// cancellation, and clock semantics — the invariants everything else in the
// simulator relies on.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"

namespace rlacast::sim {
namespace {

TEST(Scheduler, DispatchesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Scheduler, SimultaneousEventsAreFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.schedule_at(1.0, [&order, i] { order.push_back(i); });
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, CancelPreventsDispatch) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_at(1.0, [&] { fired = true; });
  s.cancel(id);
  s.run_all();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, CancelAfterFireIsHarmless) {
  Scheduler s;
  int count = 0;
  const EventId id = s.schedule_at(1.0, [&] { ++count; });
  s.schedule_at(2.0, [&] { ++count; });
  s.run_one();
  s.cancel(id);  // already fired; must not corrupt accounting
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, DoubleCancelIsHarmless) {
  Scheduler s;
  const EventId id = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  s.cancel(id);
  s.cancel(id);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(5.0, [&] { ++fired; });
  s.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, EventAtHorizonIsDispatched) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(2.0, [&] { fired = true; });
  s.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, ReentrantSchedulingFromCallback) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1.0, [&] {
    order.push_back(1);
    s.schedule_at(1.5, [&] { order.push_back(2); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, ChainOfEventsAdvancesClock) {
  Scheduler s;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 100) s.schedule_at(s.now() + 0.5, hop);
  };
  s.schedule_at(0.5, hop);
  s.run_all();
  EXPECT_EQ(hops, 100);
  EXPECT_DOUBLE_EQ(s.now(), 50.0);
  EXPECT_EQ(s.dispatched(), 100u);
}

TEST(Scheduler, NextTimeIsConstAndSkipsCancelled) {
  Scheduler s;
  const EventId early = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  s.cancel(early);
  const Scheduler& cs = s;  // next_time() must be callable on a const ref
  EXPECT_DOUBLE_EQ(cs.next_time(), 2.0);
}

TEST(Scheduler, CancellingEverythingReportsEmptyWithoutDispatch) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i)
    ids.push_back(s.schedule_at(1.0 + i, [] { ADD_FAILURE() << "fired"; }));
  for (const EventId id : ids) s.cancel(id);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_DOUBLE_EQ(s.next_time(), kNever);
  EXPECT_FALSE(s.run_one());
  EXPECT_EQ(s.dispatched(), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

TEST(Scheduler, StaleIdCannotCancelASlotsNextTenant) {
  Scheduler s;
  bool first = false, second = false;
  const EventId a = s.schedule_at(1.0, [&] { first = true; });
  s.cancel(a);  // frees the slot
  const EventId b = s.schedule_at(2.0, [&] { second = true; });  // reuses it
  EXPECT_NE(a, b);
  s.cancel(a);  // stale generation: must not touch b
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(Scheduler, IdsStayUniqueAcrossManyGenerationsOfOneSlot) {
  Scheduler s;
  EventId prev = kInvalidEventId;
  for (int gen = 0; gen < 1000; ++gen) {
    const EventId id = s.schedule_at(1.0, [] {});
    EXPECT_NE(id, prev);
    prev = id;
    s.cancel(id);
  }
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, RescheduleRetargetsInPlace) {
  Scheduler s;
  std::vector<int> order;
  const EventId id = s.schedule_at(5.0, [&] { order.push_back(1); });
  const EventId id2 = s.reschedule_at(id, 1.0);
  ASSERT_NE(id2, kInvalidEventId);
  EXPECT_NE(id2, id);
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.cancel(id);  // the pre-reschedule id is stale; must be a no-op
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_EQ(s.dispatched(), 2u);
}

TEST(Scheduler, RescheduleOrdersLikeCancelPlusReschedule) {
  // Retargeting onto an occupied timestamp consumes a fresh sequence number,
  // so the moved event fires after events already booked at that time.
  Scheduler s;
  std::vector<int> order;
  const EventId id = s.schedule_at(0.5, [&] { order.push_back(0); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.reschedule_at(id, 1.0);
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(Scheduler, RescheduleOfDeadIdReturnsInvalid) {
  Scheduler s;
  int fires = 0;
  const EventId fired = s.schedule_at(1.0, [&] { ++fires; });
  s.run_one();
  EXPECT_EQ(s.reschedule_at(fired, 2.0), kInvalidEventId);
  const EventId cancelled = s.schedule_at(2.0, [&] { ++fires; });
  s.cancel(cancelled);
  EXPECT_EQ(s.reschedule_at(cancelled, 3.0), kInvalidEventId);
  EXPECT_EQ(s.reschedule_at(kInvalidEventId, 3.0), kInvalidEventId);
  s.run_all();
  EXPECT_EQ(fires, 1);
}

// Randomized differential test: the slab scheduler against a naive reference
// that keeps every event in a flat vector and linearly scans for the minimum
// (time, sequence) key.  Timestamps are quantized so simultaneous events are
// common and the FIFO tie-break is genuinely exercised.
TEST(Scheduler, RandomizedStressMatchesNaiveReference) {
  struct RefEvent {
    SimTime at;
    std::uint64_t seq;
    int marker;
    bool alive;
  };
  Scheduler s;
  Rng rng(0x5eed5eedULL);
  std::vector<RefEvent> ref;
  std::vector<int> real_order, ref_order;
  // Outstanding handles: (real id, index into ref). Entries may refer to
  // events that already fired — exactly the staleness cancel/reschedule
  // must tolerate.
  std::vector<std::pair<EventId, std::size_t>> handles;
  std::uint64_t ref_seq = 1;
  int next_marker = 0;

  auto ref_run_one = [&]() -> bool {
    std::size_t best = ref.size();
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (!ref[i].alive) continue;
      if (best == ref.size() || ref[i].at < ref[best].at ||
          (ref[i].at == ref[best].at && ref[i].seq < ref[best].seq))
        best = i;
    }
    if (best == ref.size()) return false;
    ref_order.push_back(ref[best].marker);
    ref[best].alive = false;
    return true;
  };

  for (int op = 0; op < 20000; ++op) {
    const double r = rng.uniform();
    if (r < 0.50) {
      const SimTime at = s.now() + 0.5 * rng.uniform_int(0, 8);
      const int m = next_marker++;
      const EventId id =
          s.schedule_at(at, [&real_order, m] { real_order.push_back(m); });
      handles.emplace_back(id, ref.size());
      ref.push_back({at, ref_seq++, m, true});
    } else if (r < 0.65 && !handles.empty()) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      s.cancel(handles[k].first);  // may be stale: no-op in both worlds
      ref[handles[k].second].alive = false;
      handles.erase(handles.begin() +
                    static_cast<std::ptrdiff_t>(k));
    } else if (r < 0.80 && !handles.empty()) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      const SimTime at = s.now() + 0.5 * rng.uniform_int(0, 8);
      const EventId nid = s.reschedule_at(handles[k].first, at);
      // The slab must report dead exactly when the reference does.
      ASSERT_EQ(nid != kInvalidEventId, ref[handles[k].second].alive);
      if (nid != kInvalidEventId) {
        const int m = ref[handles[k].second].marker;
        ref[handles[k].second].alive = false;
        handles[k] = {nid, ref.size()};
        ref.push_back({at, ref_seq++, m, true});
      } else {
        handles.erase(handles.begin() +
                      static_cast<std::ptrdiff_t>(k));
      }
    } else {
      ASSERT_EQ(s.run_one(), ref_run_one());
    }
  }
  while (ref_run_one()) {
  }
  s.run_all();
  ASSERT_EQ(real_order.size(), ref_order.size());
  EXPECT_EQ(real_order, ref_order);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, ReservedKeyOrdersAsIfArmedAtReservation) {
  Scheduler s;
  std::vector<int> order;
  const std::uint64_t seq = s.reserve_seq();  // booked first at t = 1 ...
  s.schedule_at(1.0, [&] { order.push_back(2); });
  s.schedule_keyed(1.0, seq, [&] { order.push_back(1); });  // ... armed late
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Property test for deferred keyed arming — the FIFO-pipeline pattern.  The
// reference arms every event the moment its key is taken; the real
// scheduler sees reserve_seq() then, and the schedule_keyed() only later —
// at a random op, or at the latest just before a dispatch could pass the
// key.  Plain schedules, cancels and in-place reschedules interleave, and
// timestamps are quantized so equal-time ties (between keyed and plain
// events alike) are common.  Dispatch order must match exactly.
TEST(Scheduler, DeferredKeyedArmsMatchEagerReference) {
  struct RefEvent {
    SimTime at;
    std::uint64_t seq;
    int marker;
    bool alive;
  };
  struct Deferred {
    SimTime at;
    std::uint64_t seq;
    std::size_t ref;  // index of the reference's eager twin
  };
  Scheduler s;
  Rng rng(0xdefe44edULL);
  std::vector<RefEvent> ref;
  std::vector<Deferred> deferred;
  std::vector<int> real_order, ref_order;
  std::vector<std::pair<EventId, std::size_t>> handles;
  std::uint64_t ref_seq = 1;
  int next_marker = 0;

  auto ref_run_one = [&]() -> bool {
    std::size_t best = ref.size();
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (!ref[i].alive) continue;
      if (best == ref.size() || ref[i].at < ref[best].at ||
          (ref[i].at == ref[best].at && ref[i].seq < ref[best].seq))
        best = i;
    }
    if (best == ref.size()) return false;
    ref_order.push_back(ref[best].marker);
    ref[best].alive = false;
    return true;
  };
  auto arm = [&](std::size_t k) {
    const Deferred d = deferred[k];
    deferred.erase(deferred.begin() + static_cast<std::ptrdiff_t>(k));
    const int m = ref[d.ref].marker;
    const EventId id = s.schedule_keyed(
        d.at, d.seq, [&real_order, m] { real_order.push_back(m); });
    handles.emplace_back(id, d.ref);
  };
  // Arms every deferred key the next dispatch could otherwise pass.
  auto arm_due = [&] {
    const SimTime next = s.next_time();
    for (std::size_t k = deferred.size(); k-- > 0;)
      if (next == kNever || deferred[k].at <= next) arm(k);
  };

  for (int op = 0; op < 20000; ++op) {
    const double r = rng.uniform();
    const SimTime at = s.now() + 0.5 * rng.uniform_int(0, 8);
    if (r < 0.30) {
      const int m = next_marker++;
      const EventId id =
          s.schedule_at(at, [&real_order, m] { real_order.push_back(m); });
      handles.emplace_back(id, ref.size());
      ref.push_back({at, ref_seq++, m, true});
    } else if (r < 0.50) {
      const std::uint64_t seq = s.reserve_seq();
      ASSERT_EQ(seq, ref_seq);
      const int m = next_marker++;
      deferred.push_back({at, seq, ref.size()});
      ref.push_back({at, ref_seq++, m, true});
    } else if (r < 0.60 && !deferred.empty()) {
      arm(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(deferred.size()) - 1)));
    } else if (r < 0.70 && !handles.empty()) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      s.cancel(handles[k].first);  // may be stale: no-op in both worlds
      ref[handles[k].second].alive = false;
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (r < 0.80 && !handles.empty()) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      const EventId nid = s.reschedule_at(handles[k].first, at);
      ASSERT_EQ(nid != kInvalidEventId, ref[handles[k].second].alive);
      if (nid != kInvalidEventId) {
        const int m = ref[handles[k].second].marker;
        ref[handles[k].second].alive = false;
        handles[k] = {nid, ref.size()};
        ref.push_back({at, ref_seq++, m, true});
      } else {
        handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(k));
      }
    } else {
      arm_due();
      ASSERT_EQ(s.run_one(), ref_run_one());
    }
  }
  while (!deferred.empty()) {
    arm_due();
    ASSERT_EQ(s.run_one(), ref_run_one());
  }
  while (ref_run_one()) {
  }
  s.run_all();
  ASSERT_EQ(real_order.size(), ref_order.size());
  EXPECT_EQ(real_order, ref_order);
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator sim;
  double t1 = -1, t2 = -1;
  sim.after(1.0, [&] {
    t1 = sim.now();
    sim.after(2.0, [&] { t2 = sim.now(); });
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 3.0);
}

TEST(Timer, ScheduleFireAndReschedule) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.schedule(1.0);
  EXPECT_TRUE(t.armed());
  t.schedule(2.0);  // reschedule replaces the first
  sim.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.armed());
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Timer, CancelPreventsFire) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.schedule(1.0);
  t.cancel();
  sim.run_all();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, DestructionCancelsPendingEvent) {
  Simulator sim;
  int fires = 0;
  {
    Timer t(sim, [&] { ++fires; });
    t.schedule(1.0);
  }
  sim.run_all();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, RearmFromCallbackMakesPeriodicTimer) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] {});
  Timer periodic(sim, [&] {
    if (++fires < 5) periodic.schedule(1.0);
  });
  periodic.schedule(1.0);
  sim.run_all();
  EXPECT_EQ(fires, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

}  // namespace
}  // namespace rlacast::sim
