// Conservative parallel DES across engine shards (DESIGN.md §14).
//
// One world, K shards (one Engine per node), W worker threads. Execution
// proceeds in bounded-horizon windows: the coordinator finds the earliest
// pending event time T across shards, sets the horizon to T + lookahead,
// and lets every shard run its own events with t < horizon concurrently —
// safe because anything one shard does to another is separated by at least
// the link lookahead (two serialization delays + two wire hops + switch +
// rx processing), so no event inside the window can be affected by a
// not-yet-delivered cross-shard interaction. At the barrier the coordinator
// drains the cross-shard outboxes in a canonical (key, src, order) sort and
// applies them single-threaded, then opens the next window.
//
// Determinism: the shard map is fixed by world shape (shard-per-node), each
// shard's engine is bit-deterministic in isolation, and the barrier drain
// order is a pure function of what the windows produced — so the worker
// count W changes only which OS thread runs a shard, never the event
// order. t1 == t2 == t4 == t8, bit for bit; sim_sharded_test and the
// golden hashes assert it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace mvflow::sim {

/// Process-wide default engine parallelism: one-time $MVFLOW_ENGINE_THREADS
/// snapshot. 0 (the serial golden-reference engine) when unset, unparseable,
/// or negative — a typo'd value must not silently change how a sweep
/// runs, so the snapshot is taken exactly once.
int default_engine_threads() noexcept;

/// Coordinator self-observation: how the window protocol behaved. Exposed
/// through the MetricsRegistry as "engine.windows" etc. in sharded worlds.
struct ShardedStats {
  std::uint64_t windows = 0;      ///< barrier epochs executed
  std::uint64_t cross_posts = 0;  ///< closures handed between shards
  std::size_t peak_window_posts = 0;  ///< largest single-barrier drain

  template <typename Fn>
  void visit(Fn&& f) const {
    f("windows", static_cast<double>(windows));
    f("cross_posts", static_cast<double>(cross_posts));
    f("peak_window_posts", static_cast<double>(peak_window_posts));
  }
};

class ShardedEngine {
 public:
  /// Cross-shard closures carry a full packet plus routing/timing state —
  /// slightly bigger than an engine event, and still allocation-free.
  static constexpr std::size_t kPostInlineBytes = 128;
  using PostFn = InplaceFunction<void(), kPostInlineBytes>;

  /// `shards` engines, executed by min(workers, shards) persistent worker
  /// threads; workers == 1 runs every shard inline on the coordinator
  /// thread through the exact same window protocol.
  ShardedEngine(std::size_t shards, std::size_t workers);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  std::size_t shard_count() const noexcept { return engines_.size(); }
  std::size_t worker_count() const noexcept { return workers_; }
  Engine& shard(std::size_t s) noexcept { return *engines_[s]; }
  const Engine& shard(std::size_t s) const noexcept { return *engines_[s]; }

  /// Minimum cross-shard interaction latency; must be > 0 before
  /// run_until. The fabric derives it from link timing (fabric.cpp).
  void set_lookahead(Duration l) noexcept { lookahead_ = l; }
  Duration lookahead() const noexcept { return lookahead_; }

  /// Hand a closure across shards. Called from shard `src` while its
  /// window executes (only that shard's worker touches its outbox); the
  /// closure runs at the next barrier, on the coordinator thread, in
  /// canonical (key, src, order) position. `key` is the simulated time the
  /// interaction reaches shared state (for fabric traffic: switch arrival),
  /// which by the lookahead argument is always >= the window horizon.
  template <typename F>
  void post(std::size_t src, TimePoint key, F&& fn) {
    Outbox& ob = outboxes_[src];
    ob.posts.push_back(
        CrossPost{key, ob.next_order++, static_cast<std::uint32_t>(src),
                  PostFn(std::forward<F>(fn))});
  }

  /// Run the window loop until every shard is drained or past `t_max`;
  /// advances every shard clock to t_max (like Engine::run_until). Returns
  /// events executed. A shard exception stops the loop at the next barrier
  /// and rethrows here.
  std::size_t run_until(TimePoint t_max);

  /// Ask the window loop to exit at the next barrier. Callable from any
  /// shard callback or process body during run_until.
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Total events executed across all shards (stable between windows).
  std::uint64_t total_executed() const noexcept;

  /// Shard perf counters combined: sums for the flow counters, max for
  /// peak depth / batch (a per-shard peak does not add across shards).
  EnginePerfStats aggregate_perf() const noexcept;

  const ShardedStats& stats() const noexcept { return stats_; }

  /// Run `fn` at the first barrier where total_executed() >= `executed` —
  /// the sharded analogue of Engine::set_watchpoint, and why checkpoint
  /// watchpoints in parallel worlds are barrier-aligned: between windows
  /// every shard is quiescent and cross-shard state is fully applied.
  /// Several watchpoints may share a count; each fires exactly once, in
  /// registration order, on the coordinator thread.
  void set_watchpoint(std::uint64_t executed, std::function<void()> fn);

  /// Barrier hook: runs on the coordinator thread at the end of every
  /// window barrier (after cross posts are applied and watchpoints fired),
  /// with every shard quiescent — the one place cross-shard reads are safe
  /// while the loop runs. The argument is the window cap (the sim time the
  /// shards have reached). The auditor's sharded sweep and the watchdog
  /// tick live here; an exception thrown by the hook aborts run_until and
  /// propagates to the caller.
  void set_barrier_hook(std::function<void(TimePoint)> fn) {
    barrier_hook_ = std::move(fn);
  }

  /// Per-shard thread-context hooks: `enter(s)` runs on the thread about
  /// to execute shard s's window (bind the shard recorder / logger),
  /// `exit(s)` after it finishes (even on error). Barrier-drain closures run
  /// on the coordinator thread *without* hooks — a cross post must not
  /// depend on shard thread context, only on its destination engine.
  void set_shard_hooks(std::function<void(std::size_t)> enter,
                       std::function<void(std::size_t)> exit);

 private:
  struct CrossPost {
    TimePoint key{0};
    std::uint64_t order = 0;
    std::uint32_t src = 0;
    PostFn fn;
  };
  /// Padded so two workers' outbox bookkeeping never share a cache line.
  struct alignas(64) Outbox {
    std::vector<CrossPost> posts;
    std::uint64_t next_order = 0;
  };

  void run_shard(std::size_t s, TimePoint cap);
  void run_window(TimePoint cap);
  void worker_main(std::size_t w);
  void drain_outboxes();
  void fire_due_watchpoints();

  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Outbox> outboxes_;
  std::size_t workers_;
  Duration lookahead_{0};
  std::atomic<bool> stop_{false};
  ShardedStats stats_;
  std::function<void(std::size_t)> enter_shard_;
  std::function<void(std::size_t)> exit_shard_;
  std::function<void(TimePoint)> barrier_hook_;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> watchpoints_;
  std::vector<CrossPost> drain_scratch_;

  // Persistent worker pool (only when workers_ > 1). The coordinator
  // publishes {epoch, cap} under mu_; workers run their shards and count
  // themselves done. The mutex hand-offs order every window's shard state
  // between worker and coordinator.
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  TimePoint cap_{0};
  std::size_t done_ = 0;
  bool shutdown_ = false;

  std::mutex err_mu_;
  std::exception_ptr first_error_;
};

}  // namespace mvflow::sim
