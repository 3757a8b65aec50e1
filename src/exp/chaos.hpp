// Deterministic chaos campaigns (DESIGN.md §15).
//
// A campaign is a grid of *cells*: (scheme × fault profile ×
// serial-vs-sharded engine), each one an independent seeded World run with
// the invariant auditor and the progress watchdog armed. Cells execute on
// the exp::SweepRunner, so the assembled RESULT lines are byte-identical
// at every --jobs count — the campaign binary asserts exactly that.
//
// When a cell trips (AuditError / WatchdogError / deadlock), the campaign
// re-runs it with fault recording enabled and hands the fired-fault log to
// the minimizer, which bisects the recorded script down to the shortest
// replayable prefix and then greedily drops entries that the failure does
// not depend on. The result is a scripted-fault reproducer, typically a
// handful of events, that fails the same way with all randomness off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flowctl/flowctl.hpp"
#include "ib/config.hpp"
#include "ib/fabric.hpp"
#include "mpi/workload.hpp"

namespace mvflow::exp::chaos {

/// One named fault regime. Profiles that error QPs on purpose (finite
/// transport retries + auto-reconnect) are serial-only: recover_pair
/// mutates both endpoints' shards, which the sharded engine forbids under
/// fault injection (World enforces it).
struct FaultProfile {
  std::string name;
  double loss = 0.0;     ///< Per-packet silent-drop probability.
  double corrupt = 0.0;  ///< Per-packet CRC-corruption probability.
  std::vector<ib::LinkFlap> flaps;
  /// < 0 = infinite (faults never escalate to QP errors). Profiles that
  /// set a finite limit must also set auto_reconnect.
  int transport_retry_limit = -1;
  bool auto_reconnect = false;
  bool serial_only = false;
};

/// One campaign cell: everything needed to build the World, fully
/// deterministic as a value (no env, no wall clock).
struct CellSpec {
  flowctl::Scheme scheme = flowctl::Scheme::user_static;
  FaultProfile profile;
  int engine_threads = 0;  ///< 0 = serial reference, > 0 = sharded.
  std::uint64_t seed = 1;
  int ranks = 3;
  mpi::WorkloadSpec workload;
  /// Test-only credit skew applied at reconnect (the deliberately injected
  /// bug the minimization acceptance test plants and must catch).
  int debug_skew_reconnect_credit = 0;
  /// Replay plan for the minimizer: appended to the cell's scripted
  /// faults. Replays zero the random probabilities so the script is the
  /// *only* fault source.
  std::vector<ib::ScriptedFault> script;

  /// "scheme/profile/engine/s<seed>" — stable cell identity.
  std::string label() const;
};

/// One cell's outcome. Every field is a pure function of the CellSpec, so
/// RESULT lines compare byte-for-byte across --jobs counts.
struct CellResult {
  std::string label;
  std::uint64_t events = 0;
  std::int64_t elapsed_ns = 0;
  std::uint32_t metrics_crc = 0;
  std::size_t metrics_n = 0;
  bool violation = false;
  std::string kind;  ///< "audit" | "watchdog" | "deadlock" | "error".
  std::string what;  ///< Full diagnostic (not part of the RESULT line).
  std::vector<ib::Fabric::RecordedFault> recorded;  ///< When recording on.

  /// "RESULT cell=<label> events=... elapsed_ns=... metrics_crc=%08x
  ///  metrics_n=... violation=<0|1> kind=<k>" — the campaign protocol
  /// (mvflow_ckpt's RESULT idiom, extended with the cell identity).
  std::string result_line() const;
};

/// Run one cell: build the world (auditor + watchdog armed), run the
/// workload, classify any violation, fingerprint the metrics registry.
/// `record_faults` arms Fabric fault recording and fills `recorded`.
CellResult run_cell(const CellSpec& spec, bool record_faults = false);

/// The standard profile set: loss, corrupt, storm (both), flap, and the
/// serial-only reconnect regime (finite retries + auto_reconnect).
std::vector<FaultProfile> default_profiles();

/// Full default grid: 3 schemes × default_profiles × {serial, sharded},
/// with serial_only profiles skipped on the sharded engine. Seeds are
/// derived deterministically from `base_seed` and the cell's grid position.
std::vector<CellSpec> default_campaign(std::uint64_t base_seed);

/// Execute cells on a SweepRunner with `jobs` workers; results in cell
/// order (bit-identical at every jobs count).
std::vector<CellResult> run_campaign(const std::vector<CellSpec>& cells,
                                     int jobs);

/// Failing-seed minimization outcome.
struct MinimizeOutcome {
  bool reproduced = false;  ///< Full recorded script re-trips the failure.
  std::vector<ib::ScriptedFault> script;  ///< Minimized reproducer.
  int replays = 0;          ///< Worlds run while minimizing.
  std::string kind;         ///< Violation kind of the minimized replay.
  std::string what;
};

/// Shrink a recorded fault log to a minimal scripted reproducer: verify
/// the full script re-trips the violation with randomness off, bisect to
/// the shortest failing prefix, then greedily remove entries (adjusting
/// later same-filter skip counts, since an un-dropped packet becomes a
/// survivor the remaining entries must let pass).
MinimizeOutcome minimize_failure(
    const CellSpec& spec, const std::vector<ib::Fabric::RecordedFault>& log);

}  // namespace mvflow::exp::chaos
