// World checkpoint/restart (DESIGN.md §13).
//
// A snapshot records (a) how to rebuild the world — the full WorldConfig
// and the registered WorkloadSpec, (b) where to stop — the executed-event
// barrier, and (c) the complete serialized state of every layer at that
// barrier (engine scheduler, fabric + fault injector, per-rank devices with
// flow control and QPs, metrics, flight recorder).
//
// Restore is *deterministic replay plus a byte-exact audit*: rank bodies
// run on OS-thread stacks, which no snapshot can serialize, so a restore
// rebuilds the world from the config, replays the registered workload to
// the barrier, and then byte-compares every captured section against the
// freshly serialized live state. A single differing byte — a scheduler
// drift, an RNG draw out of place, one counter off — aborts the restore
// with SnapshotError naming the diverging section. Continued execution
// after a passing audit is bit-identical to the uninterrupted run by the
// engine's determinism guarantee; the serialized state is the proof.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flowctl/flowctl.hpp"
#include "mpi/workload.hpp"
#include "mpi/world.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "util/serial.hpp"

namespace mvflow::mpi::ckpt {

// Section tags ("MVFLOWCK" container, util/serial.hpp).
inline constexpr std::uint32_t kSecConfig = 0x31474643;    // "CFG1"
inline constexpr std::uint32_t kSecWorkload = 0x31444b57;  // "WKD1"
inline constexpr std::uint32_t kSecBarrier = 0x31525242;   // "BRR1"
inline constexpr std::uint32_t kSecEngine = 0x31474e45;    // "ENG1"
inline constexpr std::uint32_t kSecFabric = 0x31424146;    // "FAB1"
inline constexpr std::uint32_t kSecDevices = 0x31564544;   // "DEV1"
inline constexpr std::uint32_t kSecMetrics = 0x3154454d;   // "MET1"
inline constexpr std::uint32_t kSecTrace = 0x31435254;     // "TRC1"

/// Human-readable name for a section tag ("engine", "devices", ...).
std::string section_name(std::uint32_t tag);

struct WorldSnapshot {
  /// Rebuild recipe (RunConfig not included; `profile` records whether
  /// the profiler was armed by either switch).
  WorldConfig config;
  bool trace_armed = false;   ///< Recorder enabled at capture time.
  std::uint64_t trace_capacity = 0;
  WorkloadSpec workload;      ///< Replayed by name at restore.
  std::uint64_t barrier = 0;  ///< Executed-event count at capture.
  /// Serialized per-layer state at the barrier (kSecEngine..kSecTrace),
  /// byte-compared against the replayed world by the restore audit.
  std::vector<util::serial::Section> state;
};

/// Capture the complete world state. Must run at an event boundary —
/// inside an engine watchpoint — so no callback is mid-dispatch.
WorldSnapshot capture(World& world);

/// Serialize to / parse from the framed, CRC-checked snapshot container.
/// decode() throws util::serial::SnapshotError on any structural problem
/// (truncation, corruption, bad magic, unsupported version, missing
/// section) with a diagnostic naming what was wrong.
std::vector<std::byte> encode(const WorldSnapshot& snap);
WorldSnapshot decode(const std::vector<std::byte>& file);

/// File forms: crash-safe write (tmp + fsync + atomic rename) / checked read.
void write_snapshot(const WorldSnapshot& snap, const std::string& path);
WorldSnapshot read_snapshot(const std::string& path);

/// Arm engine watchpoints that write a snapshot of `world` at each listed
/// executed-event count. One event writes exactly `path`; several write
/// "<path>.<k>" each. The world must have a registered workload.
void arm_checkpoints(World& world, const std::string& path,
                     const std::vector<std::uint64_t>& events);

struct RestoreOptions {
  /// Flow-control tuning applied to every connection at the barrier —
  /// the checkpoint-fork sweep's branch point.
  flowctl::TuneDelta tune;
  /// Write further checkpoints from the resumed run (same path rules as
  /// arm_checkpoints). Counts are absolute executed-event counts and must
  /// exceed the snapshot's barrier.
  std::string checkpoint_path;
  std::vector<std::uint64_t> checkpoint_events;
  /// Simulated crash: abort the run at this executed-event count
  /// (0 = run to completion). Used by the churn harness.
  std::uint64_t kill_at = 0;
};

struct RunResult {
  sim::Duration elapsed{0};
  obs::Snapshot metrics;
  WorldStats stats;
  obs::ProfileAnalysis profile;  ///< Empty unless the profiler was armed.
  bool aborted = false;
};

/// Rebuild a world from `snap`, replay its workload to the barrier, audit
/// every state section byte-for-byte (SnapshotError on divergence), then
/// continue to completion under `opts`.
RunResult restore_run(const WorldSnapshot& snap,
                      const RestoreOptions& opts = {});

/// Run a registered workload from scratch — the uninterrupted reference,
/// or a seed run writing checkpoints / being killed via `opts`.
RunResult run_reference(const WorldConfig& cfg, const WorkloadSpec& spec,
                        const RestoreOptions& opts = {});

/// A fork-sweep branch: one warm snapshot resumed under one tuning delta.
struct ForkBranch {
  std::string label;
  flowctl::TuneDelta tune;
};
struct ForkOutcome {
  std::string label;
  sim::Duration elapsed{0};
  obs::Snapshot metrics;
};

/// Checkpoint-fork sweep: restore the snapshot at `path` once per branch
/// (>= 1), each under its own TuneDelta, on `jobs` SweepRunner threads.
/// Results come back in branch order — byte-identical for any job count.
std::vector<ForkOutcome> fork_sweep(const std::string& path,
                                    const std::vector<ForkBranch>& branches,
                                    int jobs = 1);

}  // namespace mvflow::mpi::ckpt
