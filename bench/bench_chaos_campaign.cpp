// Deterministic chaos campaign driver (DESIGN.md §15).
//
//   bench_chaos_campaign [--seeds=N] [--base-seed=S] [--jobs=N]
//   bench_chaos_campaign --inject-bug [--base-seed=S]
//
// Default mode sweeps the full (scheme × fault profile ×
// serial-vs-sharded) grid with the invariant auditor and the progress
// watchdog armed, once per seed. The whole campaign runs twice — -j1 and
// -jN — and the two assembled RESULT-line transcripts must match byte for
// byte; any cell violation or transcript divergence is a non-zero exit.
//
//   RESULT cell=<label> events=<n> elapsed_ns=<n> metrics_crc=<hex8>
//          metrics_n=<n> violation=<0|1> kind=<none|audit|watchdog|...>
//
// --inject-bug plants a deliberate credit-conservation bug (a reconnect
// credit skew behind DeviceConfig::debug_skew_reconnect_credit), runs a
// lossy cell with fault recording on, and requires the auditor to catch it
// AND the minimizer to shrink the recorded fault log to a <= 10-event
// scripted reproducer. Exit codes: 0 ok, 4 violations, 5 transcript
// mismatch, 6 inject-bug pipeline failure.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/chaos.hpp"

using namespace mvflow;

namespace {

/// Host-time cost of the auditor-disabled vs auditor-armed hot path on a
/// fault-free bandwidth run: the perf gate asserts the disabled path stays
/// within the existing throughput envelope, and this ratio documents what
/// arming it costs (serial worlds audit inline per delivered message).
double audit_wall_seconds(bool audit) {
  mpi::WorldConfig cfg = bench::base_config(flowctl::Scheme::user_static, 64);
  cfg.run = exp::RunConfig{};
  cfg.run.audit = audit;
  bench::WallTimer t;
  (void)bench::run_bandwidth(cfg, 4096, 64, /*blocking=*/false, 40);
  return t.seconds();
}

int run_inject_bug(std::uint64_t base_seed) {
  exp::chaos::CellSpec spec;
  spec.scheme = flowctl::Scheme::user_static;
  spec.profile.name = "inject-bug";
  spec.profile.loss = 0.35;
  spec.profile.transport_retry_limit = 1;  // drops escalate to QP errors
  spec.profile.auto_reconnect = true;
  spec.profile.serial_only = true;
  spec.seed = base_seed;
  spec.ranks = 2;
  spec.workload.name = "pingpong";
  spec.workload.params["bytes"] = 2048;
  spec.workload.params["iters"] = 60;
  spec.debug_skew_reconnect_credit = 1;  // the planted bug

  const exp::chaos::CellResult r = exp::chaos::run_cell(spec, true);
  std::printf("%s recorded=%zu\n", r.result_line().c_str(), r.recorded.size());
  if (!r.violation || r.kind != "audit") {
    std::fprintf(stderr,
                 "inject-bug: auditor did not catch the planted skew "
                 "(violation=%d kind=%s)\n%s\n",
                 r.violation ? 1 : 0, r.kind.c_str(), r.what.c_str());
    return 6;
  }
  std::fprintf(stderr, "caught: %s\n", r.what.c_str());

  const exp::chaos::MinimizeOutcome m =
      exp::chaos::minimize_failure(spec, r.recorded);
  std::printf("RESULT inject_bug=1 recorded=%zu minimized=%zu replays=%d "
              "reproduced=%d kind=%s\n",
              r.recorded.size(), m.script.size(), m.replays,
              m.reproduced ? 1 : 0, m.kind.c_str());
  if (!m.reproduced) {
    std::fprintf(stderr, "inject-bug: recorded script did not reproduce\n");
    return 6;
  }
  if (m.script.size() > 10) {
    std::fprintf(stderr,
                 "inject-bug: minimized script has %zu events (want <= 10)\n",
                 m.script.size());
    return 6;
  }
  for (const auto& f : m.script) {
    std::printf("  fault src=%d dst=%d kind=%d skip=%llu %s\n", f.src_node,
                f.dst_node, f.kind,
                static_cast<unsigned long long>(f.skip),
                f.corrupt ? "corrupt" : "drop");
  }
  std::fprintf(stderr, "minimized: %s\n", m.what.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opts(argc, argv);
  const std::uint64_t base_seed =
      static_cast<std::uint64_t>(opts.get_int("base-seed", 1));
  if (opts.get_bool("inject-bug", false)) return run_inject_bug(base_seed);

  const int seeds = static_cast<int>(opts.get_int("seeds", 1));
  const int jobs = bench::sweep_jobs(opts);

  std::vector<exp::chaos::CellSpec> cells;
  for (int s = 0; s < seeds; ++s) {
    auto grid = exp::chaos::default_campaign(base_seed + static_cast<std::uint64_t>(s));
    cells.insert(cells.end(), grid.begin(), grid.end());
  }

  bench::WallTimer wall;
  const auto serial = exp::chaos::run_campaign(cells, 1);
  const auto wide = exp::chaos::run_campaign(cells, jobs == 1 ? 4 : jobs);

  int violations = 0;
  bool identical = true;
  bench::BenchJson json("chaos_campaign");
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::string line = serial[i].result_line();
    std::printf("%s\n", line.c_str());
    if (line != wide[i].result_line()) {
      identical = false;
      std::fprintf(stderr, "MISMATCH -j1 vs -jN at cell %s:\n  %s\n  %s\n",
                   serial[i].label.c_str(), line.c_str(),
                   wide[i].result_line().c_str());
    }
    if (serial[i].violation) {
      ++violations;
      std::fprintf(stderr, "VIOLATION %s [%s]\n%s\n", serial[i].label.c_str(),
                   serial[i].kind.c_str(), serial[i].what.c_str());
    }
    json.add_point({{"events", static_cast<double>(serial[i].events)},
                    {"elapsed_ns", static_cast<double>(serial[i].elapsed_ns)},
                    {"violation", serial[i].violation ? 1.0 : 0.0}});
  }

  const double off_s = audit_wall_seconds(false);
  const double on_s = audit_wall_seconds(true);
  json.add_meta("cells", static_cast<double>(cells.size()));
  json.add_meta("violations", static_cast<double>(violations));
  json.add_meta("identical", identical ? 1.0 : 0.0);
  json.add_meta("audit_off_wall_s", off_s);
  json.add_meta("audit_on_wall_s", on_s);
  json.add_meta("audit_overhead_ratio", off_s > 0 ? on_s / off_s : 0.0);
  json.write(wall.seconds());

  std::printf("campaign: %zu cells, %d violations, transcripts %s, "
              "audit overhead x%.2f\n",
              cells.size(), violations, identical ? "identical" : "DIVERGED",
              off_s > 0 ? on_s / off_s : 0.0);
  if (violations > 0) return 4;
  if (!identical) return 5;
  return 0;
}
