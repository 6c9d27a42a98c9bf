#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "net/event_loop.h"

namespace vc::net {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  loop.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  loop.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), SimTime{300});
}

TEST(EventLoop, FifoAmongSimultaneousEvents) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(SimTime{50}, [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  SimTime fired{};
  loop.schedule_after(millis(10), [&] {
    loop.schedule_after(millis(5), [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, SimTime{15'000});
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule_after(millis(1), [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelAfterRunIsNoop) {
  EventLoop loop;
  const EventId id = loop.schedule_after(millis(1), [] {});
  loop.run();
  loop.cancel(id);  // must not crash or affect anything
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, RunUntilStopsAndAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(SimTime{100}, [&] { ++fired; });
  loop.schedule_at(SimTime{500}, [&] { ++fired; });
  loop.run_until(SimTime{200});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), SimTime{200});  // idle clock advance
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  loop.schedule_at(SimTime{100}, [] {});
  loop.run();
  SimTime fired{};
  loop.schedule_at(SimTime{10}, [&] { fired = loop.now(); });  // in the past
  loop.run();
  EXPECT_EQ(fired, SimTime{100});
}

TEST(EventLoop, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) loop.schedule_after(millis(1), recurse);
  };
  loop.schedule_after(millis(1), recurse);
  loop.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(loop.events_executed(), 10u);
}

TEST(EventLoop, NullCallbackRejected) {
  EventLoop loop;
  EXPECT_THROW(loop.schedule_at(SimTime{1}, nullptr), std::invalid_argument);
}

TEST(EventLoop, StaleIdInertAfterSlotReuse) {
  EventLoop loop;
  bool a_ran = false;
  bool b_ran = false;
  const EventId a = loop.schedule_after(millis(1), [&] { a_ran = true; });
  loop.cancel(a);
  // The freed slot is reused immediately; a's stale id must not be able to
  // cancel the new occupant.
  const EventId b = loop.schedule_after(millis(1), [&] { b_ran = true; });
  EXPECT_NE(a, b);
  loop.cancel(a);
  loop.run();
  EXPECT_FALSE(a_ran);
  EXPECT_TRUE(b_ran);
}

TEST(EventLoop, CancelDefaultIdWithFreeSlotZeroIsNoop) {
  // Regression: id 0 (a default-initialized handle, e.g. a VcaClient timer
  // that never started) addresses slot 0, and a free slot's armed id is also
  // 0 — cancel(0) used to "match" the free slot, double-free it into the
  // free list, and underflow pending(). Two later schedules would then both
  // land in slot 0 and one event would silently never fire.
  EventLoop loop;
  loop.cancel(EventId{});  // empty loop: slot 0 does not exist yet
  EXPECT_EQ(loop.pending(), 0u);

  int fired = 0;
  loop.schedule_after(millis(1), [&] { ++fired; });  // occupies then frees slot 0
  loop.run();
  EXPECT_EQ(fired, 1);

  loop.cancel(EventId{});  // slot 0 exists and is free: must be a no-op
  EXPECT_EQ(loop.pending(), 0u);

  loop.schedule_after(millis(1), [&] { ++fired; });
  loop.schedule_after(millis(1), [&] { ++fired; });
  EXPECT_EQ(loop.pending(), 2u);
  loop.run();
  EXPECT_EQ(fired, 3);  // with a corrupted free list one of these was lost
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, AttachMetricsBackfillsPriorActivity) {
  EventLoop loop;
  loop.schedule_after(millis(1), [] {});
  loop.schedule_after(millis(2), [] {});
  loop.run();
  MetricsRegistry registry;
  loop.attach_metrics(registry, "evl");
  EXPECT_EQ(registry.counter("evl.events_executed").value(), 2);
  EXPECT_EQ(registry.gauge("evl.queue_depth_hwm").value(), 2.0);
  loop.schedule_after(millis(1), [] {});
  loop.run();
  EXPECT_EQ(registry.counter("evl.events_executed").value(), 3);
}

TEST(EventLoop, FifoPreservedAcrossCancellations) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(loop.schedule_at(SimTime{50}, [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 10; i += 2) loop.cancel(ids[static_cast<std::size_t>(i)]);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(EventLoop, CancelSimultaneousEventFromCallback) {
  EventLoop loop;
  std::vector<int> order;
  EventId second{};
  loop.schedule_at(SimTime{10}, [&] {
    order.push_back(0);
    loop.cancel(second);
  });
  second = loop.schedule_at(SimTime{10}, [&] { order.push_back(1); });
  loop.schedule_at(SimTime{10}, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventLoop, CallbackExceptionLeavesLoopUsable) {
  EventLoop loop;
  bool later_ran = false;
  loop.schedule_after(millis(1), [] { throw std::runtime_error{"boom"}; });
  loop.schedule_after(millis(2), [&] { later_ran = true; });
  EXPECT_THROW(loop.run(), std::runtime_error);
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(loop.pending(), 1u);  // the throwing event was consumed
  loop.run();
  EXPECT_TRUE(later_ran);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, OversizedClosureHeapFallback) {
  EventLoop loop;
  // Larger than the 64-byte inline buffer: exercises the heap vtable path.
  std::array<std::uint64_t, 16> big{};
  big.fill(7);
  std::uint64_t sum = 0;
  loop.schedule_after(millis(1), [big, &sum] {
    for (const auto v : big) sum += v;
  });
  loop.run();
  EXPECT_EQ(sum, 7u * 16u);
}

TEST(EventLoop, SlabChurnKeepsOrderAndCounts) {
  // Thousands of schedule/cancel/fire cycles: slab growth, free-list reuse
  // and heap discipline must keep execution time-ordered throughout.
  EventLoop loop;
  std::int64_t last_seen = -1;
  bool monotonic = true;
  int fired = 0;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 4000; ++i) {
    const std::int64_t at = 10 + (i * 37) % 1000;
    const EventId id = loop.schedule_at(SimTime{at}, [&, at] {
      if (at < last_seen) monotonic = false;
      last_seen = at;
      ++fired;
    });
    if (i % 3 == 0) cancelled.push_back(id);
  }
  for (const EventId id : cancelled) loop.cancel(id);
  loop.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(fired, 4000 - static_cast<int>(cancelled.size()));
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_GE(loop.queue_depth_high_water(), 4000u - cancelled.size());
}

// Drives the loop with a random mix of operations and checks every step
// against a reference model: a std::set of live (at_us, id) pairs, which is
// exactly the order the loop promises. Timestamps come from a coarse grid so
// many collide (exercising the id tie-break); some lie in the past and clamp
// to now; callbacks schedule and cancel events themselves; cancels hit live,
// fired, stale and never-issued ids. The backlog passes 5000 entries, so
// every heap level and, as the size moves, the ragged last child group are
// exercised.
TEST(EventLoop, MatchesReferenceOrderUnderRandomChurn) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 17ull, 4242ull}) {
    SCOPED_TRACE(seed);
    EventLoop loop;
    std::mt19937_64 rng{seed};
    std::set<std::pair<std::int64_t, EventId>> model;
    std::size_t model_hwm = 0;
    std::vector<EventId> token_ids;  // schedule token -> issued id
    std::vector<EventId> fired_ids;
    std::vector<EventId> cancelled_ids;
    std::vector<EventId> executed;
    std::vector<EventId> expected;
    std::int64_t until_us = 0;
    int step_errors = 0;

    const auto below = [&rng](std::uint64_t n) { return static_cast<std::int64_t>(rng() % n); };
    // A time up to `steps` 100 us grid steps after `base` (about ten live
    // events share each grid point); about one in eight lies before now.
    const auto draw_time = [&](std::int64_t base, std::uint64_t steps) {
      if (rng() % 8 == 0) return loop.now().micros() - 1 - below(50);
      return base + 100 * below(steps);
    };
    const auto cancel_one = [&] {
      EventId id = 0;
      switch (rng() % 4) {
        case 0:  // live: the first entry at or after a random key
          if (!model.empty()) {
            const std::int64_t probe = model.begin()->first + below(50'000);
            auto it = model.lower_bound({probe, 0});
            if (it == model.end()) it = model.begin();
            id = it->second;
            model.erase(it);
            cancelled_ids.push_back(id);
          }
          break;
        case 1:  // already fired
          if (!fired_ids.empty()) id = fired_ids[rng() % fired_ids.size()];
          break;
        case 2:  // already cancelled
          if (!cancelled_ids.empty()) id = cancelled_ids[rng() % cancelled_ids.size()];
          break;
        default:  // never issued (0, or far beyond the schedule counter)
          id = (rng() % 2 == 0) ? 0 : (rng() | (std::uint64_t{1} << 63));
          break;
      }
      loop.cancel(id);
      if (loop.pending() != model.size()) ++step_errors;
    };

    std::function<void(std::int64_t)> schedule = [&](std::int64_t at) {
      const std::size_t token = token_ids.size();
      token_ids.push_back(0);
      const EventId id = loop.schedule_at(SimTime{at}, [&, token] {
        const EventId self = token_ids[token];
        executed.push_back(self);
        fired_ids.push_back(self);
        if (model.empty()) {
          expected.push_back(0);
          ++step_errors;
        } else {
          expected.push_back(model.begin()->second);
          if (loop.now().micros() != model.begin()->first) ++step_errors;
          model.erase(model.begin());
        }
        if (loop.now().micros() > until_us || loop.pending() != model.size()) ++step_errors;
        // Reentrant work: children at, after or before now, and cancels.
        if (rng() % 4 == 0) {
          for (std::int64_t k = 1 + below(2); k > 0; --k) schedule(draw_time(loop.now().micros(), 3));
        }
        if (rng() % 16 == 0) cancel_one();
      });
      token_ids[token] = id;
      model.emplace(std::max(at, loop.now().micros()), id);
      model_hwm = std::max(model_hwm, model.size());
      if (loop.pending() != model.size()) ++step_errors;
    };

    const auto run_until = [&](std::int64_t t) {
      until_us = std::max(t, loop.now().micros());
      loop.run_until(SimTime{t});
      if (!model.empty() && model.begin()->first <= until_us) ++step_errors;
      if (loop.now().micros() != until_us) ++step_errors;
    };

    // Build a deep backlog, then churn it with a random operation mix.
    for (int i = 0; i < 6000; ++i) schedule(draw_time(0, 500));
    for (int op = 0; op < 40000; ++op) {
      const std::uint64_t r = rng() % 100;
      if (r < 55) {
        schedule(draw_time(loop.now().micros(), 500));
      } else if (r < 85) {
        cancel_one();
      } else {
        run_until(loop.now().micros() + below(40));
      }
    }
    until_us = SimTime::infinity().micros();
    loop.run();

    EXPECT_EQ(step_errors, 0);
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(loop.pending(), 0u);
    ASSERT_EQ(executed.size(), expected.size());
    std::size_t first_diff = executed.size();
    for (std::size_t i = 0; i < executed.size(); ++i) {
      if (executed[i] != expected[i]) {
        first_diff = i;
        break;
      }
    }
    EXPECT_EQ(first_diff, executed.size()) << "execution order diverges from the model";
    EXPECT_GE(model_hwm, 5000u);
    EXPECT_EQ(loop.queue_depth_high_water(), model_hwm);
    EXPECT_EQ(loop.events_executed(), executed.size());
  }
}

TEST(EventLoop, CallbackMayGrowSlabMidInvocation) {
  // Regression (caught by ASan in a full-scale session): callbacks run in
  // place inside their slab slot, so a callback that schedules enough new
  // events to grow the slab must not have its own storage relocated or freed
  // out from under it. The captured array makes the closure's state big and
  // forces it to read the captures after the fan-out.
  EventLoop loop;
  std::array<std::uint64_t, 6> marker{1, 2, 3, 4, 5, 6};
  int scheduled_fired = 0;
  std::uint64_t checksum = 0;
  loop.schedule_after(millis(1), [&loop, &scheduled_fired, &checksum, marker] {
    for (int i = 0; i < 3000; ++i) {  // spills past several slab chunks
      loop.schedule_after(millis(1), [&scheduled_fired] { ++scheduled_fired; });
    }
    for (const auto v : marker) checksum += v;  // captures must still be alive
  });
  loop.run();
  EXPECT_EQ(checksum, 21u);
  EXPECT_EQ(scheduled_fired, 3000);
}

TEST(EventLoop, MetricsMirrorExecutionAndDepth) {
  EventLoop loop;
  MetricsRegistry registry;
  loop.attach_metrics(registry, "evl");
  loop.schedule_after(millis(1), [] {});
  loop.schedule_after(millis(2), [] {});
  loop.schedule_after(millis(3), [] {});
  loop.run();
  EXPECT_EQ(registry.counter("evl.events_executed").value(), 3);
  EXPECT_EQ(registry.gauge("evl.queue_depth_hwm").value(), 3.0);
  EXPECT_EQ(loop.events_executed(), 3u);
  EXPECT_EQ(loop.queue_depth_high_water(), 3u);
}

TEST(EventLoop, PendingCount) {
  EventLoop loop;
  const EventId a = loop.schedule_after(millis(1), [] {});
  loop.schedule_after(millis(2), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(loop.pending(), 0u);
}

}  // namespace
}  // namespace vc::net
