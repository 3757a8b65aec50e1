// In-memory host-time spans for the traced pass.
//
// The benchmark records a span around each call it makes into a layer's
// public API (World construction, run, collect_stats, the metrics snapshot,
// the profile analysis, the layer probes). Spans nest through a stack, so
// each one knows the span that caused it; all spans of one episode share
// its episode number. Nothing is written until write(), once, at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint32_t episode = 0;
    double start_us = 0;       ///< since the Spans object was made
    double end_us = 0;
  };

  /// RAII span; a null Spans makes it a no-op.
  class Scope {
   public:
    Scope(Spans* spans, std::string name, std::uint32_t episode = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t index_ = 0;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations in ms of every closed span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Write one Chrome trace_event document: the spans as complete ("X")
  /// events, and `other_data` (a JSON object) under "otherData", where the
  /// per-layer numbers and provenance of the run go. Returns false when
  /// the file cannot be written.
  bool write(const std::string& path, const std::string& other_data) const;

 private:
  using Clock = std::chrono::steady_clock;
  double now_us() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of open spans, innermost last
};

}  // namespace perfbench
