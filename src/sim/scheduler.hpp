// The engine's pending set (DESIGN.md §14).
//
// The engine dispatches strictly in (time, sequence) order, and the paper's
// results depend on nothing else. One structure hands out that order: an
// inline 4-ary min-heap. DESIGN.md §14 gives the measurements for why
// there is no other. sim_scheduler_test checks every pop against a sorted
// reference set.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace mvflow::sim {

/// Ordering key plus slab reference for one pending event. The key lives
/// here — not in the event node — so heap probes stay inside the heap's
/// own contiguous storage (see DESIGN.md §10).
struct SchedEntry {
  TimePoint t{0};
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};

/// True when `a` fires strictly before `b`. seq is unique per engine, so
/// this is a total order — there are no ties to break arbitrarily.
inline bool sched_before(const SchedEntry& a, const SchedEntry& b) noexcept {
  if (a.t != b.t) return a.t < b.t;
  return a.seq < b.seq;
}

/// Provenance label for the pending-set structure a run used. There is
/// only one; the label exists so run reports can keep naming it.
enum class SchedKind : std::uint8_t { heap4 };

std::string_view to_string(SchedKind k) noexcept;

/// 4-ary so the pop-path sift touches half the levels of a binary heap and
/// each node's children span ~1.5 cache lines.
class FourAryHeap {
 public:
  void push(const SchedEntry& e) {
    heap_.push_back(e);
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  }

  const SchedEntry* peek() const noexcept {
    return heap_.empty() ? nullptr : heap_.data();
  }

  /// Remove the minimum (peek() must have returned non-null).
  void pop_min() {
    const SchedEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      sift_down(0);
    }
  }

  std::size_t size() const noexcept { return heap_.size(); }

  /// Every entry, in internal array order (serialization sorts anyway).
  template <typename Fn>
  void visit(Fn&& f) const {
    for (const SchedEntry& e : heap_) f(e);
  }

 private:
  // Inlining asymmetry, measured: sift_down lives here so it inlines into
  // the engine's dispatch loop (moving it out of line costs ~25% whole-sim
  // throughput); sift_up stays out of line because schedule_at is itself
  // inlined at dozens of call sites and duplicating the sift there bloats
  // the I-cache for no win.
  void sift_up(std::uint32_t pos);

  void sift_down(std::uint32_t pos) {
    const SchedEntry e = heap_[pos];
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      const std::uint32_t first = 4 * pos + 1;
      if (first >= n) break;
      std::uint32_t best = first;
      const std::uint32_t end = first + 4 < n ? first + 4 : n;
      for (std::uint32_t c = first + 1; c < end; ++c) {
        if (sched_before(heap_[c], heap_[best])) best = c;
      }
      if (!sched_before(heap_[best], e)) break;
      heap_[pos] = heap_[best];
      pos = best;
    }
    heap_[pos] = e;
  }

  std::vector<SchedEntry> heap_;
};

}  // namespace mvflow::sim
