// The benchmark's four workloads and the episode that runs one of them.
//
// An episode is one simulation as a user pays for it: construct the World,
// run the workload's rank bodies, call collect_stats(), destroy the World.
// Every rank body fills its payloads from the seed and verifies every byte
// it receives, so an episode reports both what the host spent and whether
// the simulated outputs were right.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mpi/world.hpp"
#include "obs/prof.hpp"

namespace perfbench {

class Spans;

/// Exact simulated results of one episode: the simulated elapsed time and
/// every count the per-layer metrics are derived from. A pure function of
/// (workload, seed) — the digest over it must repeat exactly.
struct Counts {
  std::int64_t sim_elapsed_ns = 0;
  std::uint64_t msgs = 0;              ///< flowctl credited_sent
  std::uint64_t mpi_messages = 0;      ///< credited + control + ECM
  std::uint64_t ecm_sent = 0;
  std::uint64_t backlog_entered = 0;
  std::uint64_t growth_events = 0;
  std::uint64_t max_posted = 0;
  std::uint64_t rndv_conversions = 0;
  std::uint64_t rndv_started = 0;
  std::uint64_t reg_cache_hits = 0;
  std::uint64_t reg_cache_misses = 0;
  std::uint64_t packets = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t rnr_naks = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t connections = 0;

  /// Visit every field as (name, value), in a fixed order.
  template <typename Fn>
  void visit(Fn&& f) const {
    f("sim_elapsed_ns", static_cast<std::uint64_t>(sim_elapsed_ns));
    f("msgs", msgs);
    f("mpi_messages", mpi_messages);
    f("ecm_sent", ecm_sent);
    f("backlog_entered", backlog_entered);
    f("growth_events", growth_events);
    f("max_posted", max_posted);
    f("rndv_conversions", rndv_conversions);
    f("rndv_started", rndv_started);
    f("reg_cache_hits", reg_cache_hits);
    f("reg_cache_misses", reg_cache_misses);
    f("packets", packets);
    f("wire_bytes", wire_bytes);
    f("rnr_naks", rnr_naks);
    f("retransmits", retransmits);
    f("events_executed", events_executed);
    f("events_scheduled", events_scheduled);
    f("events_cancelled", events_cancelled);
    f("peak_pending", peak_pending);
    f("connections", connections);
  }

  /// FNV-1a over every field: the episode's simulated digest.
  std::uint64_t digest() const;
};

/// What the traced pass reads from the observability layer of one episode.
struct ObsSample {
  std::uint64_t recorder_events = 0;
  mvflow::obs::SegmentTotals payload;  ///< credited messages' six-way latency split
};

struct EpisodeResult {
  bool ok = false;          ///< passed the whole gate (set by the caller's Gate)
  std::string error;        ///< payload, NAS or exception failure; empty if none
  double host_s = 0;        ///< whole episode, constructor to destructor
  Counts counts;
  ObsSample obs;            ///< filled by traced episodes only
  std::string scheduler;    ///< the engine's scheduler kind, as run
};

struct Workload {
  std::string_view name;
  int ranks = 2;
  /// Message size and window of the workload's dominant traffic; the
  /// verbs-only ring probe replays this shape.
  std::uint32_t msg_bytes = 4;
  int window = 1;
  mvflow::flowctl::Scheme scheme = mvflow::flowctl::Scheme::user_static;
  int prepost = 10;
  bool on_demand = false;
  /// The World configuration of one episode (serial engine, quiet run).
  mvflow::mpi::WorldConfig config() const;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// Run one episode. With `spans` non-null the episode is traced: the flight
/// recorder and the causal profiler are armed, spans are recorded around
/// each public World call, and the obs sample is filled.
EpisodeResult run_episode(const Workload& w, std::uint64_t seed,
                          Spans* spans = nullptr, std::uint32_t episode = 0);

/// Construct the workload's World, run an empty body on it and destroy it;
/// returns host seconds.
double run_setup(const Workload& w);

}  // namespace perfbench
