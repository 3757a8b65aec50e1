// Conservative parallel DES coverage (DESIGN.md §14): the ShardedEngine
// window protocol at the engine level, and the tentpole determinism claim
// at the world level — a sharded world's results are bit-identical at every
// worker count (t1 == t2 == t4 == t8), because the shard map is fixed by world shape and the barrier drain order is a pure
// function of window content. The serial engine stays the golden reference;
// its results are compared where the topology makes the two interleavings
// provably coincide (single-source downlinks).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/run_config.hpp"
#include "mpi/communicator.hpp"
#include "mpi/workload.hpp"
#include "mpi/world.hpp"
#include "sim/sharded.hpp"
#include "util/serial.hpp"

namespace {

using namespace mvflow;

// ---- ShardedEngine: window protocol ----------------------------------

TEST(ShardedEngine, RequiresPositiveLookahead) {
  sim::ShardedEngine se(2, 1);
  EXPECT_THROW(se.run_until(sim::TimePoint(1000)), std::invalid_argument);
}

TEST(ShardedEngine, ShardLocalEventsRunAndClocksAlign) {
  sim::ShardedEngine se(2, 1);
  se.set_lookahead(sim::Duration(100));
  int fired = 0;
  se.shard(0).schedule_at(sim::TimePoint(10), [&fired] { ++fired; });
  se.shard(1).schedule_at(sim::TimePoint(750), [&fired] { ++fired; });
  se.run_until(sim::TimePoint(1000));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(se.total_executed(), 2u);
  // Like Engine::run_until, every shard clock advances to the horizon.
  EXPECT_EQ(se.shard(0).now(), sim::TimePoint(1000));
  EXPECT_EQ(se.shard(1).now(), sim::TimePoint(1000));
}

TEST(ShardedEngine, CrossPostsDrainInCanonicalKeyOrder) {
  sim::ShardedEngine se(2, 1);
  se.set_lookahead(sim::Duration(100));
  std::vector<int> order;
  // Shard 1's post carries the smaller key: the barrier drain must apply it
  // first even though shard 0's event fired earlier in simulated time.
  se.shard(0).schedule_at(sim::TimePoint(10), [&se, &order] {
    se.post(0, sim::TimePoint(200), [&order] { order.push_back(1); });
  });
  se.shard(1).schedule_at(sim::TimePoint(20), [&se, &order] {
    se.post(1, sim::TimePoint(150), [&order] { order.push_back(2); });
  });
  se.run_until(sim::TimePoint(1000));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(se.stats().cross_posts, 2u);
  EXPECT_GE(se.stats().windows, 1u);
}

TEST(ShardedEngine, WatchpointFiresAtFirstBarrierReachingCount) {
  sim::ShardedEngine se(2, 1);
  se.set_lookahead(sim::Duration(10));
  // A chain on each shard, far enough apart in time that windows stay small.
  for (std::size_t s = 0; s < 2; ++s) {
    for (int i = 0; i < 8; ++i) {
      se.shard(s).schedule_at(sim::TimePoint(100 * (i + 1)), [] {});
    }
  }
  std::uint64_t seen_at = 0;
  se.set_watchpoint(5, [&se, &seen_at] { seen_at = se.total_executed(); });
  se.run_until(sim::TimePoint(10'000));
  EXPECT_GE(seen_at, 5u);
  EXPECT_LE(seen_at, 16u);
}

TEST(ShardedEngine, RequestStopExitsAtNextBarrier) {
  sim::ShardedEngine se(2, 1);
  se.set_lookahead(sim::Duration(10));
  int fired = 0;
  se.shard(0).schedule_at(sim::TimePoint(10), [&] {
    ++fired;
    se.request_stop();
  });
  se.shard(0).schedule_at(sim::TimePoint(5'000), [&] { ++fired; });
  se.run_until(sim::TimePoint(10'000));
  EXPECT_EQ(fired, 1);  // the far event stays pending
  EXPECT_EQ(se.shard(0).pending_events(), 1u);
}

TEST(ShardedEngine, ShardExceptionRethrownAtBarrier) {
  sim::ShardedEngine se(2, 2);
  se.set_lookahead(sim::Duration(10));
  se.shard(1).schedule_at(sim::TimePoint(10),
                          [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(se.run_until(sim::TimePoint(1000)), std::runtime_error);
}

// Per-shard event journals (each shard writes only its own vector, so the
// recording itself is race-free) must not depend on the worker count.
TEST(ShardedEngine, WorkerCountInvariantShardJournals) {
  const auto run_with_workers = [](std::size_t workers) {
    constexpr std::size_t kShards = 4;
    sim::ShardedEngine se(kShards, workers);
    se.set_lookahead(sim::Duration(50));
    std::vector<std::vector<std::int64_t>> journal(kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
      // Seed a self-rescheduling chain plus cross posts to the next shard.
      auto chain = [&se, &journal, s](sim::TimePoint t, int depth,
                                      auto&& self) -> void {
        journal[s].push_back(t.count());
        if (depth == 0) return;
        se.shard(s).schedule_at(t + sim::Duration(30 + (std::int64_t)s),
                                [&se, &journal, s, t, depth, self] {
                                  self(t + sim::Duration(30 + (std::int64_t)s),
                                       depth - 1, self);
                                });
        se.post(s, t + sim::Duration(60), [&se, &journal, s, t] {
          const std::size_t dst = (s + 1) % kShards;
          se.shard(dst).schedule_at(t + sim::Duration(60), [&journal, dst, t] {
            journal[dst].push_back(-(t.count() + 60));
          });
        });
      };
      se.shard(s).schedule_at(sim::TimePoint(10 * ((std::int64_t)s + 1)),
                              [&, s, chain] {
                                chain(sim::TimePoint(10 * ((std::int64_t)s + 1)),
                                      12, chain);
                              });
    }
    se.run_until(sim::TimePoint(100'000));
    return journal;
  };
  const auto j1 = run_with_workers(1);
  EXPECT_EQ(run_with_workers(2), j1);
  EXPECT_EQ(run_with_workers(4), j1);
}

// ---- sharded World: the tentpole determinism claim --------------------

mpi::WorldConfig sharded_world(int ranks, int threads) {
  mpi::WorldConfig cfg;
  cfg.run = exp::RunConfig{};  // tests never honour ambient env exports
  cfg.num_ranks = ranks;
  cfg.engine_threads = threads;
  cfg.flow.scheme = flowctl::Scheme::user_dynamic;
  cfg.flow.prepost = 6;  // small pool => credit pressure, backlogs, ECMs
  return cfg;
}

mpi::WorkloadSpec allpairs_spec() {
  mpi::WorkloadSpec spec;
  spec.name = "allpairs";
  spec.params["rounds"] = 6;
  spec.params["bytes"] = 3000;  // eager+rendezvous mix around the 2KB buffer
  return spec;
}

/// Everything a run produces, as comparable bytes: elapsed time, the full
/// metrics registry (engine, fabric, flow, latency counters), the engine
/// dispatch state, and — when tracing — the serialized recorder state.
struct Fingerprint {
  std::int64_t elapsed_ns = 0;
  std::string metrics_json;
  std::vector<std::byte> engine_state;
  std::vector<std::byte> trace_state;
  std::uint64_t trace_recorded = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint run_sharded(int threads, bool trace = false) {
  mpi::World world(sharded_world(4, threads));
  if (trace) {
    world.recorder().enable(1 << 16);
    for (std::size_t s = 0; s < 4; ++s) world.shard_recorder(s).enable(1 << 16);
  }
  world.set_workload(allpairs_spec());
  Fingerprint fp;
  fp.elapsed_ns = world.run_workload().count();
  fp.metrics_json = world.metrics().snapshot().to_json();
  util::serial::BufWriter eng;
  world.serialize_engine_state(eng);
  fp.engine_state = eng.take();
  if (trace) {
    util::serial::BufWriter trc;
    world.serialize_trace_state(trc);
    fp.trace_state = trc.take();
    fp.trace_recorded = world.merged_trace().recorded();
  }
  return fp;
}

TEST(ShardedWorld, BitIdenticalAcrossWorkerCounts) {
  const Fingerprint t1 = run_sharded(1);
  EXPECT_GT(t1.elapsed_ns, 0);
  EXPECT_EQ(run_sharded(2), t1);
  EXPECT_EQ(run_sharded(4), t1);
  EXPECT_EQ(run_sharded(8), t1);
}

TEST(ShardedWorld, TracedRunsAgreeAcrossWorkerCounts) {
  const Fingerprint a = run_sharded(1, /*trace=*/true);
  const Fingerprint b = run_sharded(4, /*trace=*/true);
  EXPECT_GT(a.trace_recorded, 0u);
  EXPECT_EQ(a, b);
}

// With two ranks every switch downlink has exactly one source shard, so
// the barrier's at_switch drain order coincides with the serial engine's
// transmit-time order and the two modes are bit-identical — the sharded
// engine reproduces the golden reference exactly on this topology.
TEST(ShardedWorld, TwoRankPingpongMatchesSerialReference) {
  const auto run_pingpong = [](int threads) {
    mpi::WorldConfig cfg = sharded_world(2, threads);
    mpi::World world(cfg);
    mpi::WorkloadSpec spec;
    spec.name = "pingpong";
    spec.params["iters"] = 150;
    spec.params["bytes"] = 512;
    world.set_workload(spec);
    const std::int64_t elapsed = world.run_workload().count();
    const mpi::WorldStats st = world.collect_stats();
    return std::tuple(elapsed, st.fabric, st.total_messages(),
                      st.total_ecm(), st.total_backlogged());
  };
  EXPECT_EQ(run_pingpong(0), run_pingpong(2));
}

TEST(ShardedWorld, AbortAtWatchpointStopsAtBarrier) {
  mpi::World world(sharded_world(4, 2));
  world.set_workload(allpairs_spec());
  world.set_event_watchpoint(500, [&world] { world.abort_run(); });
  const sim::Duration elapsed = world.run_workload();
  EXPECT_TRUE(world.aborted());
  EXPECT_GT(elapsed.count(), 0);
  EXPECT_GE(world.executed_events(), 500u);
}

TEST(ShardedWorld, RejectsOnDemandConnections) {
  mpi::WorldConfig cfg = sharded_world(2, 2);
  cfg.on_demand_connections = true;
  EXPECT_THROW(mpi::World world(cfg), std::invalid_argument);
}

// Random fault injection now runs on the sharded engine (one dedicated RNG
// stream per source node, chaos campaigns depend on it); what stays
// rejected is auto-reconnect under faults (recover_pair mutates both
// shards) and scripted faults that do not pin their source node.
TEST(ShardedWorld, AcceptsRandomFaultInjection) {
  mpi::WorldConfig cfg = sharded_world(2, 2);
  cfg.fabric.fault.loss_prob = 0.05;
  cfg.fabric.transport_timeout = sim::microseconds(50);
  cfg.fabric.transport_retry_limit = -1;
  mpi::World world(cfg);
  world.set_workload(allpairs_spec());
  EXPECT_GT(world.run_workload().count(), 0);
  EXPECT_GT(world.collect_stats().fabric.lost_packets, 0u)
      << "the sharded injector must actually drop packets";
}

TEST(ShardedWorld, RejectsAutoReconnectUnderFaultInjection) {
  mpi::WorldConfig cfg = sharded_world(2, 2);
  cfg.fabric.fault.loss_prob = 0.01;
  cfg.device.auto_reconnect = true;
  EXPECT_THROW(mpi::World world(cfg), std::invalid_argument);
}

TEST(ShardedWorld, RejectsUnpinnedScriptedFault) {
  mpi::WorldConfig cfg = sharded_world(2, 2);
  cfg.fabric.fault.scripted.push_back(ib::ScriptedFault{});  // src_node = -1
  EXPECT_THROW(mpi::World world(cfg), std::invalid_argument);
}

}  // namespace
