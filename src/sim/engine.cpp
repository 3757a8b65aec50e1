#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>

#include "sim/process.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/serial.hpp"

namespace mvflow::sim {

namespace {

// Registry of constructed-and-not-yet-destroyed engines. EventHandle holds
// a raw Engine* (no refcounting on the hot path); checking membership here
// before dereferencing makes a handle that outlives its engine a safe
// no-op regardless of destruction order. Each engine is single-threaded,
// but the experiment layer runs *many* engines on a thread pool, so the
// registry is shared across threads: it is sharded by engine address, one
// mutex + tiny vector per shard. A thread touches only its engine's shard,
// so concurrent worlds contend only on the (rare) hash collisions, and the
// linear scan stays over the handful of engines that map to one shard.
// Address reuse by a *new* engine at the same address is additionally
// guarded by the slot bounds check and the generation stamp in
// cancel()/handle_valid().
struct RegistryShard {
  std::mutex mu;
  std::vector<Engine*> engines;
};

constexpr std::size_t kRegistryShards = 16;

RegistryShard& shard_for(const Engine* e) noexcept {
  // Heap-allocated and intentionally leaked: EventHandles held by
  // static-lifetime objects may call is_live() during process teardown,
  // after function-local statics would have been destroyed.
  static auto* shards = new std::array<RegistryShard, kRegistryShards>();
  // Engines are heap/stack objects; drop the alignment bits before mixing.
  const auto p = reinterpret_cast<std::uintptr_t>(e) >> 6;
  return (*shards)[(p ^ (p >> 7)) % kRegistryShards];
}

}  // namespace

Engine::Engine() {
  {
    RegistryShard& s = shard_for(this);
    std::lock_guard<std::mutex> lock(s.mu);
    s.engines.push_back(this);
  }
  // Give the logger simulated time while this engine exists, so MVFLOW_LOG
  // lines correlate with trace/metrics timestamps. (The time-source stack
  // is thread-local: this registers on the constructing thread, and each
  // Process re-registers on its own rank thread.)
  util::Logger::push_time_source(
      [](const void* ctx) {
        return static_cast<long long>(
            static_cast<const Engine*>(ctx)->now().count());
      },
      this);
}

Engine::~Engine() {
  util::Logger::pop_time_source(this);
  RegistryShard& s = shard_for(this);
  std::lock_guard<std::mutex> lock(s.mu);
  s.engines.erase(std::remove(s.engines.begin(), s.engines.end(), this),
                  s.engines.end());
}

bool Engine::is_live(const Engine* e) noexcept {
  RegistryShard& s = shard_for(e);
  std::lock_guard<std::mutex> lock(s.mu);
  return std::find(s.engines.begin(), s.engines.end(), e) != s.engines.end();
}

std::uint32_t Engine::acquire_slot_grow() {
  ++perf_.pool_allocs;
  if (slab_size_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  return slab_size_++;
}

void Engine::release_slot(std::uint32_t slot) noexcept {
  Node& n = node(slot);
  ++n.gen;  // every outstanding handle to this event is now invalid
  n.fn.reset();
  n.next_free = free_head_;
  free_head_ = slot;
}

void Engine::past_schedule_fail() const {
  util::require(false, "cannot schedule event in the past");
}

bool Engine::cancel(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slab_size_) return false;
  if (node(slot).gen != gen) return false;  // already fired or cancelled
  // Lazy: release the slot (O(1)) and leave the heap entry behind as a
  // zombie; the generation stamped in the entry no longer matches, so the
  // dispatcher drops it when it reaches the top. The slot is immediately
  // reusable — a reuse advances gen again, which changes nothing for the
  // zombie (it already mismatches).
  release_slot(slot);
  ++zombies_;
  ++perf_.cancelled_before_fire;
  return true;
}

bool Engine::handle_valid(std::uint32_t slot, std::uint32_t gen) const noexcept {
  // gen matches only between schedule and release, and release happens
  // exactly at fire or cancel — so a match means "still pending".
  return slot < slab_size_ && node(slot).gen == gen;
}

bool Engine::dispatch_one() {
  SchedEntry top;
  if (!peek_live(top)) return false;
  fire_entry(top);
  return true;
}

TimePoint Engine::next_event_time() {
  SchedEntry top;
  return peek_live(top) ? top.t : TimePoint::max();
}

void Engine::set_watchpoint(std::uint64_t executed, std::function<void()> fn) {
  watchpoints_.emplace_back(executed, std::move(fn));
  next_watch_ = std::min(next_watch_, executed);
}

void Engine::recompute_next_watch() noexcept {
  next_watch_ = ~0ull;
  for (const auto& [count, fn] : watchpoints_) {
    next_watch_ = std::min(next_watch_, count);
  }
}

void Engine::fire_watchpoints() {
  // Extract the due callbacks before invoking any: a callback may register
  // further watchpoints (e.g. a restore arming its next checkpoint), which
  // must not invalidate this iteration.
  std::vector<std::function<void()>> due;
  for (auto it = watchpoints_.begin(); it != watchpoints_.end();) {
    if (it->first <= perf_.executed) {
      due.push_back(std::move(it->second));
      it = watchpoints_.erase(it);
    } else {
      ++it;
    }
  }
  recompute_next_watch();
  for (auto& fn : due) fn();
}

std::size_t Engine::run() {
  util::check(!running_, "Engine::run is not reentrant");
  running_ = true;
  stopped_ = false;
  std::size_t n = 0;
  SchedEntry top;
  while (!stopped_ && peek_live(top)) {
    fire_entry(top);
    ++n;
    if (perf_.executed >= next_watch_) fire_watchpoints();
  }
  running_ = false;
  if (first_error_) {
    auto e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
  return n;
}

std::size_t Engine::run_until(TimePoint t) {
  util::check(!running_, "Engine::run is not reentrant");
  running_ = true;
  stopped_ = false;
  std::size_t n = 0;
  // peek_live() first: a zombie at the front must not gate (or satisfy)
  // the time check — only the earliest *live* event's time matters.
  SchedEntry top;
  while (!stopped_ && peek_live(top) && top.t <= t) {
    fire_entry(top);
    ++n;
    if (perf_.executed >= next_watch_) fire_watchpoints();
  }
  if (!stopped_) now_ = std::max(now_, t);
  running_ = false;
  if (first_error_) {
    auto e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
  return n;
}

void Engine::serialize_state(util::serial::BufWriter& w) const {
  w.i64(now_.count());
  w.u64(next_seq_);
  w.u32(slab_size_);
  // Perf counters: deterministic across identical replays, so they belong
  // in the audit — a divergence here means the replay did different work.
  // Peak depth and dead pops describe the heap, not what ran, and stay
  // out of the audit.
  w.u64(perf_.scheduled);
  w.u64(perf_.executed);
  w.u64(perf_.cancelled_before_fire);
  w.u64(perf_.pool_reuses);
  w.u64(perf_.pool_allocs);
  // The live pending set in canonical (t, seq) order — the total dispatch
  // order of everything that will happen next. Zombies and the heap's
  // array order are layout details and never reach the bytes.
  std::vector<SchedEntry> live;
  live.reserve(pq_.size());
  pq_.visit([&](const SchedEntry& e) {
    if (node(e.slot).gen == e.gen) live.push_back(e);
  });
  std::sort(live.begin(), live.end(),
            [](const SchedEntry& a, const SchedEntry& b) {
              return sched_before(a, b);
            });
  w.u64(live.size());
  for (const SchedEntry& e : live) {
    w.i64(e.t.count());
    w.u64(e.seq);
    w.u32(e.slot);
    w.u32(e.gen);
  }
  // Slab occupancy profile: each slot's generation counts its complete
  // acquire/release history, and the freelist chain pins the exact order
  // future slots will be handed out in.
  for (std::uint32_t slot = 0; slot < slab_size_; ++slot) {
    w.u32(node(slot).gen);
  }
  std::uint32_t free_len = 0;
  for (std::uint32_t s = free_head_; s != kNone; s = node(s).next_free) {
    ++free_len;
  }
  w.u32(free_len);
  for (std::uint32_t s = free_head_; s != kNone; s = node(s).next_free) {
    w.u32(s);
  }
}

std::vector<Process*> Engine::blocked_processes() const {
  std::vector<Process*> out;
  for (Process* p : processes_) {
    if (!p->finished()) out.push_back(p);
  }
  return out;
}

void Engine::register_process(Process* p) { processes_.push_back(p); }

void Engine::unregister_process(Process* p) {
  processes_.erase(std::remove(processes_.begin(), processes_.end(), p),
                   processes_.end());
}

void Engine::record_error(std::exception_ptr e) {
  if (!first_error_) first_error_ = std::move(e);
  stopped_ = true;
}

}  // namespace mvflow::sim
