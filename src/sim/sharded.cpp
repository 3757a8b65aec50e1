#include "sim/sharded.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/check.hpp"

namespace mvflow::sim {

int default_engine_threads() noexcept {
  static const int threads = [] {
    int t = 0;
    if (const char* env = std::getenv("MVFLOW_ENGINE_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v > 0 && v <= 1024) {
        t = static_cast<int>(v);
      }
    }
    return t;
  }();
  return threads;
}

ShardedEngine::ShardedEngine(std::size_t shards, std::size_t workers)
    : outboxes_(shards), workers_(std::max<std::size_t>(
                             1, std::min(workers, shards))) {
  util::require(shards > 0, "sharded engine needs at least one shard");
  engines_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    engines_.push_back(std::make_unique<Engine>());
  }
  if (workers_ > 1) {
    pool_.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
      pool_.emplace_back([this, w] { worker_main(w); });
    }
  }
}

ShardedEngine::~ShardedEngine() {
  if (!pool_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : pool_) t.join();
  }
}

std::uint64_t ShardedEngine::total_executed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& e : engines_) total += e->perf_stats().executed;
  return total;
}

EnginePerfStats ShardedEngine::aggregate_perf() const noexcept {
  EnginePerfStats agg;
  for (const auto& e : engines_) {
    const EnginePerfStats& p = e->perf_stats();
    agg.scheduled += p.scheduled;
    agg.executed += p.executed;
    agg.cancelled_before_fire += p.cancelled_before_fire;
    agg.pool_reuses += p.pool_reuses;
    agg.pool_allocs += p.pool_allocs;
    agg.dead_pops += p.dead_pops;
    agg.peak_heap_depth = std::max(agg.peak_heap_depth, p.peak_heap_depth);
  }
  return agg;
}

void ShardedEngine::set_watchpoint(std::uint64_t executed,
                                   std::function<void()> fn) {
  watchpoints_.emplace_back(executed, std::move(fn));
}

void ShardedEngine::set_shard_hooks(std::function<void(std::size_t)> enter,
                                    std::function<void(std::size_t)> exit) {
  enter_shard_ = std::move(enter);
  exit_shard_ = std::move(exit);
}

void ShardedEngine::run_shard(std::size_t s, TimePoint cap) {
  if (enter_shard_) enter_shard_(s);
  try {
    engines_[s]->run_until(cap);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(err_mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    stop_.store(true, std::memory_order_relaxed);
  }
  if (exit_shard_) exit_shard_(s);
}

void ShardedEngine::worker_main(std::size_t w) {
  std::uint64_t seen = 0;
  for (;;) {
    TimePoint cap{0};
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) return;
      seen = epoch_;
      cap = cap_;
    }
    for (std::size_t s = w; s < engines_.size(); s += workers_) {
      run_shard(s, cap);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++done_ == workers_) done_cv_.notify_one();
    }
  }
}

void ShardedEngine::run_window(TimePoint cap) {
  if (pool_.empty()) {
    for (std::size_t s = 0; s < engines_.size(); ++s) run_shard(s, cap);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    cap_ = cap;
    done_ = 0;
    ++epoch_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return done_ == workers_; });
}

void ShardedEngine::drain_outboxes() {
  drain_scratch_.clear();
  for (Outbox& ob : outboxes_) {
    for (CrossPost& p : ob.posts) drain_scratch_.push_back(std::move(p));
    ob.posts.clear();
  }
  if (drain_scratch_.empty()) return;
  // Canonical application order: by the time the interaction reaches
  // shared state, then (src, order) — a pure function of window content,
  // independent of which worker finished first.
  std::sort(drain_scratch_.begin(), drain_scratch_.end(),
            [](const CrossPost& a, const CrossPost& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.src != b.src) return a.src < b.src;
              return a.order < b.order;
            });
  stats_.cross_posts += drain_scratch_.size();
  stats_.peak_window_posts =
      std::max(stats_.peak_window_posts, drain_scratch_.size());
  for (CrossPost& p : drain_scratch_) p.fn();
  drain_scratch_.clear();
}

void ShardedEngine::fire_due_watchpoints() {
  if (watchpoints_.empty()) return;
  const std::uint64_t total = total_executed();
  // Extract the due callbacks before invoking any: a callback may register
  // further watchpoints (e.g. a restore arming its next checkpoint), which
  // must not invalidate this iteration.
  std::vector<std::function<void()>> due;
  for (auto it = watchpoints_.begin(); it != watchpoints_.end();) {
    if (it->first <= total) {
      due.push_back(std::move(it->second));
      it = watchpoints_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& fn : due) fn();
}

std::size_t ShardedEngine::run_until(TimePoint t_max) {
  util::require(lookahead_ > Duration(0),
                "sharded engine needs a positive lookahead before running");
  const std::uint64_t start_executed = total_executed();
  stop_.store(false, std::memory_order_relaxed);
  for (;;) {
    if (stop_requested()) break;
    TimePoint t_min = TimePoint::max();
    for (const auto& e : engines_) {
      t_min = std::min(t_min, e->next_event_time());
    }
    if (t_min > t_max) break;
    // Window [t_min, t_min + lookahead): every cross-shard effect of an
    // event inside it lands at or after the horizon, so shards are
    // independent until the barrier. The cap is inclusive (run_until runs
    // t <= cap), hence horizon - 1ns.
    const TimePoint cap = std::min(t_min + lookahead_ - Duration(1), t_max);
    run_window(cap);
    ++stats_.windows;
    drain_outboxes();
    fire_due_watchpoints();
    // Coordinator thread, workers parked: safe for cross-shard reads.
    if (barrier_hook_) barrier_hook_(cap);
  }
  // Align every shard clock with the caller's horizon (mirrors
  // Engine::run_until advancing now() even when the queue drains early) —
  // unless we bailed on stop/error, where clocks stay at the last barrier.
  bool errored = false;
  {
    std::lock_guard<std::mutex> lock(err_mu_);
    errored = static_cast<bool>(first_error_);
  }
  if (!stop_requested() && !errored) {
    for (const auto& e : engines_) e->run_until(t_max);
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(err_mu_);
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
  return static_cast<std::size_t>(total_executed() - start_executed);
}

}  // namespace mvflow::sim
