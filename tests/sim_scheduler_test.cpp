// Randomized reference tests for the engine's pending set (DESIGN.md §14).
// The 4-ary heap must hand out the strict (t, seq) minimum on every pop,
// under every timestamp distribution the engine can produce. Each pop is
// checked against a std::set of (t, seq) kept beside the heap as the
// reference. The heap is driven the way the engine drives it
// (peek-then-pop, pushes never behind the last popped time), across dense
// uniform traffic, same-timestamp spikes and sparse far-future tails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace {

using namespace mvflow::sim;

/// Deterministic splitmix64: tests must not depend on library RNG details.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// One deterministic op stream applied to the heap and to the reference
/// set together; every pop must take the set's minimum. `spread` shapes
/// the push distribution: the delta past the current virtual clock is
/// below(spread), plus occasional same-timestamp spikes and rare
/// far-future outliers.
void expect_reference_order(std::size_t target_pending, std::uint64_t spread,
                            int spike_percent, int far_percent) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdecafull}) {
    FourAryHeap heap;
    std::set<std::pair<std::int64_t, std::uint64_t>> ref;
    Rng rng{seed};
    std::uint64_t seq = 0;
    std::int64_t now = 0;
    std::int64_t last_push = 0;
    std::size_t pops = 0;
    const auto pop_and_check = [&] {
      const SchedEntry* top = heap.peek();
      ASSERT_NE(top, nullptr);
      ASSERT_EQ(std::make_pair(top->t.count(), top->seq), *ref.begin())
          << "seed " << seed << ", pop " << pops;
      now = top->t.count();
      ref.erase(ref.begin());
      heap.pop_min();
      ++pops;
    };
    const std::size_t ops = target_pending * 6;
    for (std::size_t i = 0; i < ops; ++i) {
      // Bias pushes while below the target so the heap actually reaches
      // it, then hover around it with a 50/50 mix.
      const bool push = heap.size() < target_pending ? rng.below(100) < 80
                                                     : rng.below(100) < 50;
      if (push || heap.size() == 0) {
        std::int64_t t;
        const std::uint64_t roll = rng.below(100);
        if (roll < static_cast<std::uint64_t>(spike_percent)) {
          t = last_push;  // same-timestamp burst
        } else if (roll <
                   static_cast<std::uint64_t>(spike_percent + far_percent)) {
          t = now + static_cast<std::int64_t>(spread * 1000 + rng.below(spread));
        } else {
          t = now + static_cast<std::int64_t>(rng.below(spread));
        }
        if (t < now) t = now;  // engine contract: never behind the clock
        heap.push(SchedEntry{TimePoint(t), seq, 0, 0});
        ref.emplace(t, seq++);
        last_push = t;
      } else {
        pop_and_check();
      }
      ASSERT_EQ(heap.size(), ref.size());
    }
    while (heap.size() > 0) pop_and_check();
    EXPECT_TRUE(ref.empty());
    EXPECT_GE(pops, target_pending) << "seed " << seed;
  }
}

TEST(SchedulerDifferential, UniformDense) {
  expect_reference_order(/*target_pending=*/512, /*spread=*/2048,
                         /*spike_percent=*/0, /*far_percent=*/0);
}

TEST(SchedulerDifferential, SameTimestampSpikes) {
  expect_reference_order(512, 256, /*spike_percent=*/40, /*far_percent=*/0);
}

TEST(SchedulerDifferential, SparseFarFutureTail) {
  // Mostly near-term events with a far-future tail (idle retransmit
  // timers).
  expect_reference_order(64, 100'000, /*spike_percent=*/5,
                         /*far_percent=*/20);
}

TEST(SchedulerDifferential, TinyPendingSet) {
  expect_reference_order(4, 128, 10, 10);
}

TEST(SchedulerDifferential, LargePendingSet) {
  expect_reference_order(20'000, 1 << 16, 5, 2);
}

// ---- Engine level: a whole simulation with cancellations --------------
//
// A self-expanding random workload: events reschedule themselves, fan out,
// and cancel earlier timers. Ids are handed out in schedule order, so the
// journal must be sorted by (fire time, id) — the engine's (t, seq)
// dispatch order — and every cancelled entry must be reaped exactly once
// by the time the heap drains.

struct EngineRun {
  std::vector<std::pair<std::int64_t, int>> journal;  // (fire time, id)
  std::uint64_t executed = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t dead_pops = 0;
  std::uint64_t cancelled = 0;
};

EngineRun run_engine(std::uint64_t seed) {
  Engine eng;
  Rng rng{seed};
  std::vector<std::pair<std::int64_t, int>> journal;
  std::vector<EventHandle> timers;
  int next_id = 0;

  // Fixed-size context so every callback capture is one pointer wide.
  struct Ctx {
    Engine* eng;
    Rng* rng;
    std::vector<std::pair<std::int64_t, int>>* journal;
    std::vector<EventHandle>* timers;
    int* next_id;
  } ctx{&eng, &rng, &journal, &timers, &next_id};

  struct Step {
    static void fire(Ctx* c, int id, int depth) {
      c->journal->emplace_back(c->eng->now().count(), id);
      if (depth <= 0) return;
      // Fan out 1-2 children at randomized offsets (including zero-delay
      // same-timestamp children), park a cancellable timer, and cancel a
      // random earlier timer about half the time.
      const int kids = 1 + static_cast<int>(c->rng->below(2));
      for (int k = 0; k < kids; ++k) {
        const Duration d(static_cast<std::int64_t>(c->rng->below(300)));
        const int id2 = (*c->next_id)++;
        Ctx* cc = c;
        c->eng->schedule_after(
            d, [cc, id2, depth] { fire(cc, id2, depth - 1); });
      }
      const int tid = (*c->next_id)++;
      Ctx* cc = c;
      c->timers->push_back(c->eng->schedule_after(
          Duration(500 + static_cast<std::int64_t>(c->rng->below(500))),
          [cc, tid] { fire(cc, tid, 0); }));
      if (!c->timers->empty() && c->rng->below(2) == 0) {
        const std::size_t victim = c->rng->below(c->timers->size());
        (*c->timers)[victim].cancel();
      }
    }
  };

  for (int i = 0; i < 8; ++i) {
    const int id = next_id++;
    Ctx* cc = &ctx;
    eng.schedule_at(TimePoint(static_cast<std::int64_t>(rng.below(100))),
                    [cc, id] { Step::fire(cc, id, 9); });
  }
  eng.run();

  EngineRun out;
  out.journal = std::move(journal);
  out.executed = eng.perf_stats().executed;
  out.scheduled = eng.perf_stats().scheduled;
  out.dead_pops = eng.perf_stats().dead_pops;
  out.cancelled = eng.perf_stats().cancelled_before_fire;
  return out;
}

TEST(SchedulerDifferential, WholeEngineRunsIdentical) {
  for (std::uint64_t seed : {7ull, 1234ull}) {
    const EngineRun run = run_engine(seed);
    EXPECT_GT(run.executed, 500u) << "workload too small to mean anything";
    EXPECT_GT(run.dead_pops, 0u) << "cancellation path not exercised";
    EXPECT_TRUE(std::is_sorted(run.journal.begin(), run.journal.end()))
        << "journal left (t, seq) order, seed " << seed;
    EXPECT_EQ(run.journal.size(), run.executed) << "seed " << seed;
    EXPECT_EQ(run.executed + run.cancelled, run.scheduled) << "seed " << seed;
    // Lazy cancellation: after a full drain every cancelled entry was
    // reaped at the front exactly once.
    EXPECT_EQ(run.dead_pops, run.cancelled) << "seed " << seed;
    // The same seed replays the same journal.
    EXPECT_EQ(run_engine(seed).journal, run.journal) << "seed " << seed;
  }
}

// run_until must leave later events queued.
TEST(SchedulerDifferential, RunUntilBoundaryIdentical) {
  Engine eng;
  std::vector<int> fired;
  for (int i = 0; i < 50; ++i) {
    eng.schedule_at(TimePoint(i * 10), [&fired, i] { fired.push_back(i); });
  }
  eng.run_until(TimePoint(245));
  EXPECT_EQ(fired.size(), 25u);
  EXPECT_EQ(eng.pending_events(), 25u);
  EXPECT_EQ(eng.now(), TimePoint(245));
}

// A far-future zombie reaped at the front must not disturb traffic that
// arrives afterwards at much earlier times.
TEST(SchedulerReference, FarFutureZombieThenNearTraffic) {
  Engine eng;
  std::vector<int> fired;
  EventHandle far = eng.schedule_at(TimePoint(200'000'000'000),
                                    [&fired] { fired.push_back(-1); });
  far.cancel();
  eng.run();  // reaps the zombie without firing anything
  EXPECT_EQ(eng.pending_events(), 0u);
  EXPECT_EQ(eng.perf_stats().dead_pops, 1u);
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(eng.now() + Duration(10 + i),
                    [&fired, i] { fired.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

}  // namespace
