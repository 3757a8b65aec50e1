#include "obs/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <ostream>
#include <set>

#include "util/serial.hpp"

namespace mvflow::obs {

std::string csv_escape(std::string_view field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string_view to_string(Ev e) {
  switch (e) {
    case Ev::msg_posted: return "msg_posted";
    case Ev::msg_segmented: return "msg_segmented";
    case Ev::msg_on_wire: return "msg_on_wire";
    case Ev::msg_acked: return "msg_acked";
    case Ev::msg_delivered: return "msg_delivered";
    case Ev::credit_grant: return "credit_grant";
    case Ev::credit_consume: return "credit_consume";
    case Ev::backlog_enter: return "backlog_enter";
    case Ev::backlog_dispatch: return "backlog_dispatch";
    case Ev::ecm_sent: return "ecm_sent";
    case Ev::rnr_nak: return "rnr_nak";
    case Ev::retransmit: return "retransmit";
    case Ev::qp_error: return "qp_error";
  }
  return "unknown";
}

void FlightRecorder::enable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  ring_.assign(capacity, TraceEvent{});
  clear();
  enabled_ = true;
}

void FlightRecorder::clear() noexcept {
  head_ = 0;
  recorded_ = 0;
  for (auto& c : kind_counts_) c = 0;
}

void FlightRecorder::record(sim::TimePoint t, Ev kind, int rank, int peer,
                            std::uint32_t qpn, std::uint64_t a,
                            std::int64_t b) noexcept {
  if (!enabled_ || ring_.empty()) return;
  TraceEvent& e = ring_[head_];
  e.t = t;
  e.a = a;
  e.b = b;
  e.qpn = qpn;
  e.rank = static_cast<std::int16_t>(rank);
  e.peer = static_cast<std::int16_t>(peer);
  e.kind = kind;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  ++recorded_;
  ++kind_counts_[static_cast<std::size_t>(kind)];
}

std::size_t FlightRecorder::size() const noexcept {
  return recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_)
                                  : ring_.size();
}

std::uint64_t FlightRecorder::dropped() const noexcept {
  return recorded_ < ring_.size() ? 0 : recorded_ - ring_.size();
}

std::vector<TraceEvent> FlightRecorder::events() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  // When the ring has wrapped, head_ points at the oldest retained event.
  const std::size_t start = recorded_ < ring_.size() ? 0 : head_;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::absorb(const FlightRecorder& other) {
  const std::vector<TraceEvent> mine = events();
  const std::vector<TraceEvent> theirs = other.events();
  if (!theirs.empty() || !mine.empty()) {
    std::vector<TraceEvent> merged;
    merged.reserve(mine.size() + theirs.size());
    // std::merge is stable and prefers the first range at ties: absorbing
    // recorders in a fixed order yields one canonical interleaving.
    std::merge(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
               std::back_inserter(merged),
               [](const TraceEvent& a, const TraceEvent& b) { return a.t < b.t; });
    // The rebuilt ring holds exactly the merged retained set: head_ = 0 with
    // recorded_ >= capacity makes events() read it back in order, and
    // dropped() keeps reporting the sum of both sides' evictions.
    ring_ = std::move(merged);
    head_ = 0;
  }
  recorded_ += other.recorded_;
  for (std::size_t k = 0; k < kEvKinds; ++k) {
    kind_counts_[k] += other.kind_counts_[k];
  }
}

namespace {

/// ts in trace_event JSON is microseconds; keep ns precision as decimals.
void append_ts(std::string& out, sim::TimePoint t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(t.count()) / 1000.0);
  out += buf;
}

std::string connection_label(const TraceEvent& e) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "r%d->r%d", static_cast<int>(e.rank),
                static_cast<int>(e.peer));
  return buf;
}

bool is_credit_kind(Ev k) {
  return k == Ev::credit_grant || k == Ev::credit_consume;
}

bool is_backlog_kind(Ev k) {
  return k == Ev::backlog_enter || k == Ev::backlog_dispatch;
}

}  // namespace

void FlightRecorder::export_chrome_trace(std::ostream& os) const {
  export_chrome_trace(os, {});
}

void FlightRecorder::export_chrome_trace(
    std::ostream& os, const std::vector<FlowArrowEvent>& flows) const {
  const std::vector<TraceEvent> evs = events();
  std::string out;
  out.reserve(evs.size() * 128 + flows.size() * 96 + 256);
  out += "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";

  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Flow arrows interleave with the instant events so the whole stream
  // stays non-decreasing in ts; `flows` arrives time-sorted from the
  // profiler. Binding id + shared cat/name is what makes Perfetto draw the
  // s→f arrow between the sender's and receiver's tracks.
  std::size_t fi = 0;
  const auto put_flows_until = [&](sim::TimePoint t, bool all) {
    for (; fi < flows.size() && (all || flows[fi].t <= t); ++fi) {
      const FlowArrowEvent& f = flows[fi];
      sep();
      out += "{\"name\": \"msg\", \"cat\": \"prof\", \"ph\": \"";
      out += f.begin ? 's' : 'f';
      out += '"';
      if (!f.begin) out += ", \"bp\": \"e\"";
      out += ", \"id\": ";
      out += std::to_string(f.id);
      out += ", \"ts\": ";
      append_ts(out, f.t);
      out += ", \"pid\": ";
      out += std::to_string(f.rank);
      out += ", \"tid\": 0}";
    }
  };

  // Metadata: name each rank's process track once.
  std::set<std::int16_t> ranks;
  for (const auto& e : evs) ranks.insert(e.rank);
  for (const std::int16_t r : ranks) {
    sep();
    out += "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": ";
    out += std::to_string(r);
    out += ", \"args\": {\"name\": \"rank";
    out += std::to_string(r);
    out += "\"}}";
  }

  for (const auto& e : evs) {
    put_flows_until(e.t, false);
    sep();
    out += "{\"name\": \"";
    out += to_string(e.kind);
    out += "\", \"ph\": \"i\", \"s\": \"p\", \"ts\": ";
    append_ts(out, e.t);
    out += ", \"pid\": ";
    out += std::to_string(e.rank);
    out += ", \"tid\": ";
    out += std::to_string(e.qpn);
    out += ", \"args\": {\"peer\": ";
    out += std::to_string(e.peer);
    out += ", \"a\": ";
    out += std::to_string(e.a);
    out += ", \"b\": ";
    out += std::to_string(e.b);
    out += "}}";

    // Counter tracks so Perfetto draws credits / backlog depth over time.
    if (is_credit_kind(e.kind)) {
      sep();
      out += "{\"name\": \"credits ";
      out += connection_label(e);
      out += "\", \"ph\": \"C\", \"ts\": ";
      append_ts(out, e.t);
      out += ", \"pid\": ";
      out += std::to_string(e.rank);
      out += ", \"args\": {\"credits\": ";
      out += std::to_string(e.b);
      out += "}}";
    } else if (is_backlog_kind(e.kind)) {
      sep();
      out += "{\"name\": \"backlog ";
      out += connection_label(e);
      out += "\", \"ph\": \"C\", \"ts\": ";
      append_ts(out, e.t);
      out += ", \"pid\": ";
      out += std::to_string(e.rank);
      out += ", \"args\": {\"depth\": ";
      out += std::to_string(e.a);
      out += "}}";
    }
  }
  put_flows_until(sim::TimePoint{0}, true);
  out += "\n]}\n";
  os << out;
}

bool FlightRecorder::export_chrome_trace(const std::string& path) const {
  return export_chrome_trace(path, {});
}

bool FlightRecorder::export_chrome_trace(
    const std::string& path, const std::vector<FlowArrowEvent>& flows) const {
  if (path == "-") {
    export_chrome_trace(std::cout, flows);
    std::cout.flush();
    return static_cast<bool>(std::cout);
  }
  std::ofstream f(path);
  if (!f) return false;
  export_chrome_trace(f, flows);
  return static_cast<bool>(f);
}

void FlightRecorder::export_credit_csv(std::ostream& os) const {
  os << "time_ns,rank,peer,event,credits,backlog_depth\n";
  // Last-known (credits, backlog depth) per directed connection, so each
  // row is a complete sample even though an event updates only one column.
  std::map<std::pair<std::int16_t, std::int16_t>,
           std::pair<std::int64_t, std::int64_t>>
      state;
  for (const auto& e : events()) {
    if (!is_credit_kind(e.kind) && !is_backlog_kind(e.kind)) continue;
    auto& [credits, depth] = state[{e.rank, e.peer}];
    if (is_credit_kind(e.kind)) {
      credits = e.b;
    } else {
      depth = static_cast<std::int64_t>(e.a);
      credits = e.b;
    }
    os << e.t.count() << ',' << e.rank << ',' << e.peer << ','
       << csv_escape(to_string(e.kind)) << ',' << credits << ',' << depth
       << '\n';
  }
}

bool FlightRecorder::export_credit_csv(const std::string& path) const {
  if (path == "-") {
    export_credit_csv(std::cout);
    std::cout.flush();
    return static_cast<bool>(std::cout);
  }
  std::ofstream f(path);
  if (!f) return false;
  export_credit_csv(f);
  return static_cast<bool>(f);
}

namespace detail {

thread_local constinit FlightRecorder* t_recorder = nullptr;

/// Shared object for threads no simulation has claimed. Construct-once,
/// never enabled afterwards: concurrent unbound threads only ever read
/// `enabled_` (false), so sharing it is race-free.
FlightRecorder& fallback_recorder() noexcept {
  static FlightRecorder instance;
  return instance;
}

}  // namespace detail

FlightRecorder* bind_recorder(FlightRecorder* r) noexcept {
  FlightRecorder* prev = detail::t_recorder;
  detail::t_recorder = r;
  return prev;
}

void FlightRecorder::serialize_state(util::serial::BufWriter& w) const {
  w.b(enabled_);
  w.u64(ring_.size());  // capacity
  w.u64(recorded_);
  w.u64(dropped());
  for (std::uint64_t c : kind_counts_) w.u64(c);
  const std::vector<TraceEvent> evs = events();  // oldest first
  w.u64(evs.size());
  for (const TraceEvent& e : evs) {
    w.i64(e.t.count());
    w.u64(e.a);
    w.i64(e.b);
    w.u32(e.qpn);
    w.i32(e.rank);
    w.i32(e.peer);
    w.u8(static_cast<std::uint8_t>(e.kind));
  }
}

}  // namespace mvflow::obs
