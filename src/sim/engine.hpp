// Discrete-event simulation engine.
//
// A single pooled min-heap of (time, sequence) ordered events drives the
// whole simulation. Everything that happens — packet hops, timer expiry,
// process wake-ups — is an event; ties at equal times execute in
// scheduling order, which makes runs bit-deterministic.
//
// The hot path is allocation-free in steady state: event nodes live in a
// freelist-recycled slab, callbacks are stored inline (InplaceFunction),
// and handles are {slot, generation} pairs with O(1) lazy cancellation and
// no reference counting. See DESIGN.md §10 for the invariants.
//
// The pending set is one inline 4-ary heap (scheduler.hpp), held by value
// and called directly; DESIGN.md §14 says why there is no other.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inplace_function.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace mvflow::util::serial {
class BufWriter;
}

namespace mvflow::sim {

class Engine;
class Process;

/// Engine self-observation counters: how much work the scheduler did and
/// how well the event-node pool avoided the allocator. `pool_hit_rate()`
/// ≈ 1.0 after warmup is the "steady-state dispatch is allocation-free"
/// invariant the throughput bench reports.
struct EnginePerfStats {
  std::uint64_t scheduled = 0;             ///< schedule_at/after calls
  std::uint64_t executed = 0;              ///< events fired
  std::uint64_t cancelled_before_fire = 0;
  std::size_t peak_heap_depth = 0;         ///< max simultaneous pending events
  std::uint64_t pool_reuses = 0;   ///< event nodes recycled from the freelist
  std::uint64_t pool_allocs = 0;   ///< event nodes that grew the slab
  std::uint64_t dead_pops = 0;     ///< lazily-cancelled entries reaped at pop
  double pool_hit_rate() const {
    const double total =
        static_cast<double>(pool_reuses) + static_cast<double>(pool_allocs);
    return total == 0 ? 0.0 : static_cast<double>(pool_reuses) / total;
  }

  /// Enumerate every counter as (name, value) for a metrics sink.
  template <typename Fn>
  void visit(Fn&& f) const {
    f("scheduled", static_cast<double>(scheduled));
    f("executed", static_cast<double>(executed));
    f("cancelled_before_fire", static_cast<double>(cancelled_before_fire));
    f("peak_heap_depth", static_cast<double>(peak_heap_depth));
    f("pool_reuses", static_cast<double>(pool_reuses));
    f("pool_allocs", static_cast<double>(pool_allocs));
    f("pool_hit_rate", pool_hit_rate());
    f("dead_pops", static_cast<double>(dead_pops));
  }
};

/// Handle for a scheduled event; lets the scheduler cancel timers (e.g. an
/// RNR retry that was satisfied early). Copyable; cancelling any copy
/// cancels the event. A handle is a {slot, generation} pair into the
/// engine's event slab: once the event fires or is cancelled, the slot's
/// generation advances and every outstanding handle to it reads invalid —
/// cancel-after-fire is a harmless no-op.
///
/// Handles may outlive the engine: cancel()/valid() first check the
/// process-wide live-engine registry, so a handle whose engine was already
/// destroyed (e.g. a QP timer cancelled during teardown after the engine)
/// degrades to a no-op instead of dereferencing a dangling pointer.
class EventHandle {
 public:
  EventHandle() = default;
  inline void cancel();
  /// True only while the event is still pending (scheduled, not yet fired
  /// or cancelled).
  inline bool valid() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Provenance label for run reports; always heap4.
  SchedKind sched_kind() const noexcept { return SchedKind::heap4; }

  /// True while `e` is a constructed, not-yet-destroyed Engine. Backed by a
  /// process-wide registry sharded by engine address (mutex per shard), so
  /// concurrent engines on an experiment thread pool register, die, and
  /// check liveness without racing; EventHandle checks it before touching
  /// its engine so stale handles are safe no matter the destruction order.
  static bool is_live(const Engine* e) noexcept;

  TimePoint now() const noexcept { return now_; }

  /// Causal-parent token (the profiler's chain id, DESIGN.md §16). Every
  /// scheduled event inherits the token current at its schedule_at call,
  /// and dispatch re-establishes it for the callback's duration — so a
  /// chain of events (packet hops, timer cascades) carries its originating
  /// message's identity with zero bookkeeping at the intermediate sites.
  /// 0 means "no cause"; the token is runtime-only state and is never
  /// serialized (snapshots stay byte-identical whether or not a profiler
  /// was armed).
  std::uint64_t cause() const noexcept { return cause_; }
  void set_cause(std::uint64_t c) noexcept { cause_ = c; }

  /// Inline storage for event callbacks, sized for the largest hot-path
  /// closure (the fabric's packet-delivery lambda: a full Packet plus
  /// routing state) with headroom. A schedule site whose capture outgrows
  /// this fails to compile instead of silently allocating.
  static constexpr std::size_t kEventInlineBytes = 96;
  using EventFn = InplaceFunction<void(), kEventInlineBytes>;

  /// Schedule `fn` to run at absolute simulated time `t` (must be >= now()).
  /// The callable is constructed directly inside the slab node — no
  /// intermediate EventFn move on the hot path.
  template <typename F>
  EventHandle schedule_at(TimePoint t, F&& fn) {
    require_not_past(t);
    const std::uint32_t slot = acquire_slot();
    Node& n = node(slot);
    n.fn.emplace(std::forward<F>(fn));
    n.cause = cause_;  // inherit the scheduler's causal token (one store)
    try {
      pq_.push(SchedEntry{t, next_seq_++, slot, n.gen});
    } catch (...) {
      // Scheduler growth hit bad_alloc: put the slot (and its closure's
      // captured resources) back instead of leaking them.
      release_slot(slot);
      throw;
    }
    ++perf_.scheduled;
    if (pq_.size() > perf_.peak_heap_depth) perf_.peak_heap_depth = pq_.size();
    return EventHandle(this, slot, n.gen);
  }
  /// Schedule `fn` to run `d` after the current time.
  template <typename F>
  EventHandle schedule_after(Duration d, F&& fn) {
    return schedule_at(now_ + d, std::forward<F>(fn));
  }

  /// Run events until the queue is empty or stop() is called. Returns the
  /// number of events executed. If a process body threw, the exception is
  /// rethrown here after the engine stops.
  std::size_t run();

  /// Run events with time <= t; leaves later events queued. Advances now()
  /// to t even if the queue drains early.
  std::size_t run_until(TimePoint t);

  /// Request that run() return at the next event boundary.
  void stop() noexcept { stopped_ = true; }

  /// Time of the earliest live pending event, or TimePoint::max() when the
  /// queue is empty. Reaps zombies from the front as a side effect. This is
  /// what the sharded coordinator polls to pick the next window start.
  TimePoint next_event_time();

  std::size_t executed_events() const noexcept {
    return static_cast<std::size_t>(perf_.executed);
  }
  std::size_t pending_events() const noexcept {
    return pq_.size() - zombies_;  // zombies are cancelled, not pending
  }

  const EnginePerfStats& perf_stats() const noexcept { return perf_; }

  /// Run `fn` once executed_events() reaches `executed` (checked at the
  /// event boundary after each dispatch, so the callback observes a
  /// consistent "between events" world). Several watchpoints may share a
  /// count; each fires exactly once, in registration order. The callback
  /// runs in engine context and may capture state, register further
  /// watchpoints, or call stop(); the inactive-path cost in the dispatch
  /// loop is a single integer compare. This is the checkpoint hook
  /// (DESIGN.md §13): "checkpoint at k events" arms a watchpoint at k.
  void set_watchpoint(std::uint64_t executed, std::function<void()> fn);

  /// Serialize the engine's dispatch state — clock, sequence counter, the
  /// live pending set in canonical (t, seq) order, per-slot generations,
  /// the freelist chain, and the layout-invariant perf counters — for
  /// the snapshot's bit-identical restore audit. The encoding is
  /// canonical: internal layout (heap array order, unreaped zombies) never
  /// leaks into the bytes. Event *callbacks* are not serialized (closures are
  /// reconstructed by deterministic replay); this captures every byte of
  /// state that orders them.
  void serialize_state(util::serial::BufWriter& w) const;

  /// Processes register themselves; used to detect "simulation ended with
  /// blocked processes" (a deadlock in the modeled system).
  std::vector<Process*> blocked_processes() const;

 private:
  friend class Process;
  friend class EventHandle;

  void register_process(Process* p);
  void unregister_process(Process* p);
  void record_error(std::exception_ptr e);
  /// One compare inline (schedule_at is the hottest entry point); the
  /// throw machinery stays out of line.
  void require_not_past(TimePoint t) const {
    if (t < now_) past_schedule_fail();
  }
  [[noreturn]] void past_schedule_fail() const;

  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// One slab slot. `gen` advances every time the slot is released (fired
  /// or cancelled), invalidating outstanding handles — and orphaning any
  /// heap entry still carrying the old generation (see below).
  /// The ordering key (t, seq) lives in the heap entry, not here: sift
  /// comparisons stay inside the contiguous heap array instead of chasing
  /// a ~100-byte Node per probe (the single hottest path in the engine).
  struct Node {
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNone;
    std::uint64_t cause = 0;  ///< causal token inherited at schedule time
    EventFn fn;
  };

  /// The slab is chunked so node addresses are stable across growth: the
  /// dispatcher invokes a callback in place (no per-event 96-byte move),
  /// and the callback itself may schedule new events that extend the slab
  /// while it is still executing.
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  Node& node(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }
  const Node& node(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  bool dispatch_one();  // pop + run one event; false if queue empty

  /// Freelist pop inline (steady state is ~100% pool hits); slab growth
  /// stays out of line.
  std::uint32_t acquire_slot() {
    if (free_head_ != kNone) {
      const std::uint32_t slot = free_head_;
      Node& n = node(slot);
      free_head_ = n.next_free;
      n.next_free = kNone;
      ++perf_.pool_reuses;
      return slot;
    }
    return acquire_slot_grow();
  }
  std::uint32_t acquire_slot_grow();
  void release_slot(std::uint32_t slot) noexcept;
  bool cancel(std::uint32_t slot, std::uint32_t gen);
  bool handle_valid(std::uint32_t slot, std::uint32_t gen) const noexcept;

  /// Reap zombies at the front until the minimum entry is live; copies it
  /// to `out` (still queued) and returns true, or false when the queue
  /// drains. Cancellation is lazy — cancel() releases the slot (O(1)) and
  /// leaves the heap entry behind as a zombie whose stamped
  /// generation no longer matches; reaping it here counts a dead_pop.
  /// Dispatch order of live events is untouched — a cancelled event fires
  /// in neither scheme.
  bool peek_live(SchedEntry& out);
  /// Pop `out` (the entry peek_live just surfaced) and run its callback.
  void fire_entry(const SchedEntry& top);
  void fire_watchpoints();
  void recompute_next_watch() noexcept;

  std::vector<std::unique_ptr<Node[]>> chunks_;  // freelist-recycled slab
  std::uint32_t slab_size_ = 0;   // slots handed out so far (all chunks)
  FourAryHeap pq_;                // pending + zombie events, (t, seq) order
  std::uint32_t free_head_ = kNone;   // freelist of released slots
  std::size_t zombies_ = 0;           // cancelled entries not yet reaped
  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t cause_ = 0;  ///< current causal token (see cause())
  EnginePerfStats perf_;
  bool stopped_ = false;
  bool running_ = false;
  std::vector<Process*> processes_;
  std::exception_ptr first_error_;
  /// Checkpoint hooks: (executed-count, callback), fired at event
  /// boundaries. `next_watch_` caches the minimum pending count so the
  /// dispatch loop pays one compare when no watchpoint is armed.
  std::vector<std::pair<std::uint64_t, std::function<void()>>> watchpoints_;
  std::uint64_t next_watch_ = ~0ull;
};

// peek_live/fire_entry are defined here so they inline into the three
// dispatch loops (run, run_until, dispatch_one) — together they are the
// per-event overhead floor, and keeping `top` in registers across the
// peek → fire handoff is worth several percent of whole-sim throughput.
inline bool Engine::peek_live(SchedEntry& out) {
  for (;;) {
    const SchedEntry* top = pq_.peek();
    if (top == nullptr) return false;
    if (node(top->slot).gen == top->gen) {
      out = *top;
      return true;
    }
    pq_.pop_min();  // reap a cancelled entry
    --zombies_;
    ++perf_.dead_pops;
  }
}

inline void Engine::fire_entry(const SchedEntry& top) {
  // Returns the fired slot to the freelist after its callback finishes —
  // even if the callback throws (otherwise the slot would leak).
  struct FireGuard {
    Engine* e;
    std::uint32_t slot;
    std::uint64_t prev_cause;
    ~FireGuard() {
      e->cause_ = prev_cause;
      Node& n = e->node(slot);
      n.fn.reset();
      n.next_free = e->free_head_;
      e->free_head_ = slot;
    }
  };
  Node& n = node(top.slot);
  util::check(top.t >= now_, "event queue went backwards");
  now_ = top.t;
  pq_.pop_min();  // peek_live just surfaced `top`
  // The callback runs in place — its chunk address is stable even if it
  // schedules events that grow the slab. The generation is bumped first so
  // the event's own handle already reads fired (cancelling yourself is a
  // no-op), but the slot joins the freelist only after the callback
  // returns, so nothing can emplace over the still-executing closure.
  ++n.gen;
  ++perf_.executed;
  FireGuard guard{this, top.slot, cause_};
  cause_ = n.cause;  // the callback observes its scheduler's causal token
  n.fn();
}

inline void EventHandle::cancel() {
  if (engine_ != nullptr && Engine::is_live(engine_))
    engine_->cancel(slot_, gen_);
}

inline bool EventHandle::valid() const {
  return engine_ != nullptr && Engine::is_live(engine_) &&
         engine_->handle_valid(slot_, gen_);
}

}  // namespace mvflow::sim
