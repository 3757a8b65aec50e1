// Sim-time flight recorder (DESIGN.md §11).
//
// A bounded ring buffer of compact 32-byte trace events covering the
// flow-control lifecycle the paper argues about: message posted → segmented
// → on-wire → delivered → ACKed, credit grant/consume, backlog
// enter/dispatch, ECM sent, RNR NAK, retransmit, QP error. Events are
// stamped with engine (simulated) time by the call site and exported as
// Chrome `trace_event` JSON — one process track per rank/node, one thread
// track per QP, viewable in Perfetto or chrome://tracing — plus a CSV
// time-series of credit count and backlog depth per connection.
//
// The recorder keeps no latency statistics: per-message latency is the
// causal profiler's (obs/prof.hpp), whose records yield the exact
// `latency.*` distributions. The recorder holds what those records cannot
// express — the per-event timeline, counter tracks and fault events.
//
// Overhead contract: the recorder is OFF by default and a disabled
// recorder costs exactly one predictable branch at each instrumentation
// site (`if (rec.enabled()) ...` around an out-of-line record()). Nothing
// allocates while recording — the ring is sized at enable() time and
// overwrites its oldest events at capacity (`dropped()` counts evictions).
//
// Ownership and threading: every recorder is owned by whoever creates it —
// mpi::World owns one per simulation — and `obs::recorder()` resolves to the
// recorder *bound to the current thread* (a thread-local pointer, so
// independent Worlds on a thread pool record into their own rings with no
// shared mutable state). World binds its recorder on the constructing
// thread and on each rank's process thread; a thread with no binding sees a
// shared, permanently-disabled fallback, which keeps the instrumentation
// fast path a single branch with no null check. Tests may instantiate and
// bind private FlightRecorders freely (RecorderBinding below).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace mvflow::util::serial {
class BufWriter;
}

namespace mvflow::obs {

enum class Ev : std::uint8_t {
  msg_posted,        ///< WQE accepted by the QP; a = msn, b = bytes
  msg_segmented,     ///< multi-packet message; a = msn, b = packet count
  msg_on_wire,       ///< first transmission started; a = msn, b = bytes
  msg_acked,         ///< requester retired the send;  a = msn, b = bytes
  msg_delivered,     ///< responder completed arrival; a = msn, b = bytes
  credit_grant,      ///< credits learned from peer;   a = granted, b = credits now
  credit_consume,    ///< credit spent on a send;      a = 1, b = credits now
  backlog_enter,     ///< send queued, no credit;      a = depth now, b = credits
  backlog_dispatch,  ///< backlogged send released;    a = depth now, b = credits
  ecm_sent,          ///< explicit credit message;     a = credits carried
  rnr_nak,           ///< responder had no buffer;     a = msn
  retransmit,        ///< message re-entered the wire; a = msn, b = bytes
  qp_error,          ///< QP entered the error state
};
inline constexpr std::size_t kEvKinds = 13;

std::string_view to_string(Ev e);

struct TraceEvent {
  sim::TimePoint t{0};
  std::uint64_t a = 0;  ///< kind-specific, see Ev
  std::int64_t b = 0;   ///< kind-specific, see Ev
  std::uint32_t qpn = 0;
  std::int16_t rank = -1;  ///< originating rank/node
  std::int16_t peer = -1;  ///< remote rank/node (-1 when not applicable)
  Ev kind = Ev::msg_posted;
};

/// One endpoint of a Chrome-trace flow arrow (ph:"s" start on the sender's
/// track, ph:"f" finish on the receiver's). Produced by the causal profiler
/// (obs/prof.hpp) and interleaved into export_chrome_trace by timestamp.
struct FlowArrowEvent {
  sim::TimePoint t{0};
  std::int16_t rank = -1;
  std::uint64_t id = 0;  ///< binds the s/f pair; unique per wire message
  bool begin = true;     ///< true = "s" (sender), false = "f" (receiver)
};

/// Escape one CSV field: fields containing the separator, a double quote,
/// or a line break are quoted with embedded quotes doubled (RFC 4180);
/// plain fields pass through byte-identical.
std::string csv_escape(std::string_view field);

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  /// The one branch instrumentation sites take when tracing is off.
  bool enabled() const noexcept { return enabled_; }

  /// Size (or resize) the ring and start recording. Clears prior events.
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Stop recording; the captured events stay exportable.
  void disable() noexcept { enabled_ = false; }
  /// Drop all captured events and counts (capacity retained).
  void clear() noexcept;

  /// Append one event (overwrites the oldest at capacity). Out-of-line on
  /// purpose: the enabled() branch at the call site is the hot-path cost.
  void record(sim::TimePoint t, Ev kind, int rank, int peer, std::uint32_t qpn,
              std::uint64_t a, std::int64_t b) noexcept;

  std::size_t size() const noexcept;
  std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events evicted by the ring wrapping.
  std::uint64_t dropped() const noexcept;
  /// Total record() calls since enable()/clear(), per kind and overall —
  /// counted even for events the ring later overwrote.
  std::uint64_t recorded() const noexcept { return recorded_; }
  std::uint64_t count(Ev kind) const noexcept {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }

  /// Copy of the retained events, oldest first.
  std::vector<TraceEvent> events() const;

  /// Fold another recorder into this one: retained events are interleaved
  /// by timestamp (stable — at equal times this recorder's events keep
  /// preceding the absorbed ones, so absorbing shard recorders in shard
  /// order is deterministic), and per-kind counts and totals are
  /// summed. The ring grows to hold every retained event
  /// of both sides; already-dropped events stay dropped. Sharded worlds use
  /// this to present one world-ordered trace from per-shard rings.
  void absorb(const FlightRecorder& other);

  /// Chrome trace_event JSON ({"traceEvents": [...]}) with rank process
  /// tracks, QP thread tracks, instant events for every kind, and counter
  /// tracks for credits / backlog depth per connection. The overload taking
  /// `flows` interleaves the profiler's sender→receiver flow arrows by
  /// timestamp (ph:"s"/"f"); `flows` must be time-sorted. A `path` of "-"
  /// writes to stdout.
  void export_chrome_trace(std::ostream& os) const;
  void export_chrome_trace(std::ostream& os,
                           const std::vector<FlowArrowEvent>& flows) const;
  bool export_chrome_trace(const std::string& path) const;
  bool export_chrome_trace(const std::string& path,
                           const std::vector<FlowArrowEvent>& flows) const;

  /// CSV time-series: time_ns,rank,peer,event,credits,backlog_depth —
  /// one row per credit/backlog event, carrying the last-known value of
  /// the other column for that connection. Free-text fields go through
  /// csv_escape, so labels containing the separator round-trip. A `path`
  /// of "-" writes to stdout.
  void export_credit_csv(std::ostream& os) const;
  bool export_credit_csv(const std::string& path) const;

  /// Serialize the recorder for the snapshot restore audit: configuration,
  /// per-kind counts and the retained ring (oldest first).
  void serialize_state(util::serial::BufWriter& w) const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;        ///< next write position
  std::uint64_t recorded_ = 0;  ///< total record() calls
  std::uint64_t kind_counts_[kEvKinds] = {};
};

namespace detail {
/// The current thread's recorder; nullptr = unbound. `constinit` matters:
/// a constant-initialized thread_local compiles to a plain TLS load at
/// every instrumentation site, where a dynamic initializer would route
/// every access through the TLS init-guard wrapper — measurable across
/// the simulation hot path. Internal — bind through
/// bind_recorder()/RecorderBinding.
extern thread_local constinit FlightRecorder* t_recorder;
/// Shared recorder that is never enabled; what unbound threads observe.
FlightRecorder& fallback_recorder() noexcept;
}  // namespace detail

/// The recorder bound to the current thread (a world-owned recorder while a
/// simulation is active, a shared never-enabled fallback otherwise). This
/// is what the instrumented layers consult; during a simulation — the only
/// time the fast path matters — the branch below is perfectly predicted
/// non-null.
inline FlightRecorder& recorder() noexcept {
  FlightRecorder* r = detail::t_recorder;
  return r != nullptr ? *r : detail::fallback_recorder();
}

/// Bind `r` as this thread's recorder and return the previous binding
/// (pass the returned pointer back to restore it; nullptr rebinds the
/// disabled fallback). `r` must outlive the binding.
FlightRecorder* bind_recorder(FlightRecorder* r) noexcept;

/// RAII binding for the current thread; restores the previous recorder on
/// destruction. Used by tests and by World on the thread that runs the
/// engine. (Rank process threads bind without restoring — each such thread
/// is born and dies inside one simulation.)
class RecorderBinding {
 public:
  explicit RecorderBinding(FlightRecorder* r) noexcept
      : prev_(bind_recorder(r)) {}
  ~RecorderBinding() { bind_recorder(prev_); }
  RecorderBinding(const RecorderBinding&) = delete;
  RecorderBinding& operator=(const RecorderBinding&) = delete;

 private:
  FlightRecorder* prev_;
};

}  // namespace mvflow::obs
