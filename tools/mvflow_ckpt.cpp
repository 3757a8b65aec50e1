// Checkpoint/restart driver (DESIGN.md §13).
//
//   mvflow_ckpt run      --workload=NAME [workload/world options]
//                        [--checkpoint=PATH@K[,K2...]] [--kill=K] [--trace]
//   mvflow_ckpt restore  SNAPSHOT [--checkpoint=PATH@K...] [--kill=K]
//                        [--tune-ecm=N --tune-growth=N ...]
//   mvflow_ckpt inspect  SNAPSHOT
//
// `run` executes a registered workload from scratch, optionally writing
// snapshots at the listed executed-event counts and/or crashing at --kill.
// `restore` rebuilds the world from a snapshot, replays to the barrier,
// byte-audits the state, and continues. Both print one machine-readable
// line:
//
//   RESULT events=<n> elapsed_ns=<n> metrics_crc=<hex8> metrics_n=<n>
//
// A restore that is bit-identical to the uninterrupted run prints exactly
// the same RESULT line — that equality is what the golden checkpoint test
// asserts across processes. Exit codes: 0 success, 3 snapshot/audit error
// (diagnostic on stderr), 1 anything else.
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "mpi/checkpoint.hpp"
#include "mpi/workload.hpp"
#include "mpi/world.hpp"
#include "util/options.hpp"
#include "util/serial.hpp"

namespace {

using namespace mvflow;

mpi::WorldConfig config_from_options(const util::Options& opt) {
  mpi::WorldConfig cfg;
  cfg.run = exp::RunConfig{};  // explicit CLI control, no env snapshot
  cfg.num_ranks = static_cast<int>(opt.get_int("ranks", 2));
  const std::string scheme = opt.get_or("scheme", "static");
  const auto parsed = flowctl::parse_scheme(scheme);
  if (!parsed) {
    throw std::runtime_error("unknown --scheme=" + scheme +
                             " (hardware|static|dynamic)");
  }
  cfg.flow.scheme = *parsed;
  cfg.flow.prepost = static_cast<int>(opt.get_int("prepost", 10));
  cfg.flow.ecm_threshold = static_cast<int>(opt.get_int("ecm", 5));
  cfg.flow.growth_step = static_cast<int>(opt.get_int("growth", 1));
  cfg.flow.exponential_growth = opt.get_bool("expgrowth", false);
  cfg.flow.max_prepost = static_cast<int>(opt.get_int("maxprepost", 1024));
  cfg.flow.allow_decay = opt.get_bool("decay", false);
  cfg.flow.decay_idle_msgs =
      static_cast<int>(opt.get_int("decayidle", 512));
  cfg.on_demand_connections = opt.get_bool("ondemand", false);
  cfg.max_sim_time = sim::milliseconds(opt.get_int("maxsim-ms", 30000));
  cfg.fabric.fault.seed =
      static_cast<std::uint64_t>(opt.get_int("faultseed", 0x5eedfa17));
  cfg.fabric.fault.loss_prob = opt.get_double("loss", 0.0);
  cfg.fabric.fault.corrupt_prob = opt.get_double("corrupt", 0.0);
  const std::int64_t transport_us = opt.get_int("transport-us", 0);
  if (transport_us > 0) {
    cfg.fabric.transport_timeout = sim::microseconds(transport_us);
  }
  cfg.device.auto_reconnect = opt.get_bool("reconnect", false);
  // Engine mode (DESIGN.md §14): --threads=N runs the sharded engine with
  // N workers (0 = serial reference). Defaults to the MVFLOW_ENGINE_THREADS
  // snapshot like everywhere else; the worker count never changes results,
  // only wall-clock.
  cfg.engine_threads =
      static_cast<int>(opt.get_int("threads", cfg.engine_threads));
  return cfg;
}

mpi::WorkloadSpec workload_from_options(const util::Options& opt) {
  mpi::WorkloadSpec spec;
  spec.name = opt.get_or("workload", "pingpong");
  for (const char* key :
       {"bytes", "iters", "window", "reps", "blocking", "rounds"}) {
    if (const auto v = opt.get(key)) {
      spec.params[key] = opt.get_int(key, 0);
    }
  }
  return spec;
}

void parse_checkpoint_arg(const util::Options& opt,
                          mpi::ckpt::RestoreOptions& ro) {
  if (const auto ck = opt.get("checkpoint")) {
    exp::RunConfig rc;
    if (!rc.parse_checkpoint(*ck)) {
      throw std::runtime_error("malformed --checkpoint (want path@k[,k...])");
    }
    ro.checkpoint_path = rc.checkpoint_path;
    ro.checkpoint_events = rc.checkpoint_events;
  }
  ro.kill_at = static_cast<std::uint64_t>(opt.get_int("kill", 0));
}

flowctl::TuneDelta tune_from_options(const util::Options& opt) {
  flowctl::TuneDelta d;
  if (opt.get("tune-ecm")) d.ecm_threshold = (int)opt.get_int("tune-ecm", 0);
  if (opt.get("tune-growth"))
    d.growth_step = static_cast<int>(opt.get_int("tune-growth", 0));
  if (opt.get("tune-expgrowth"))
    d.exponential_growth = opt.get_bool("tune-expgrowth", false);
  if (opt.get("tune-maxprepost"))
    d.max_prepost = static_cast<int>(opt.get_int("tune-maxprepost", 0));
  if (opt.get("tune-decay")) d.allow_decay = opt.get_bool("tune-decay", false);
  if (opt.get("tune-decayidle"))
    d.decay_idle_msgs = static_cast<int>(opt.get_int("tune-decayidle", 0));
  return d;
}

void print_result(const mpi::ckpt::RunResult& rr) {
  // The metrics CRC fingerprints the whole flattened registry; two runs
  // print the same line iff every counter, stat, and histogram matches.
  const std::string json = rr.metrics.to_json();
  const std::uint32_t crc = util::serial::crc32(json.data(), json.size());
  const double events = rr.metrics.get("engine.executed", 0.0);
  std::printf("RESULT events=%" PRIu64 " elapsed_ns=%" PRId64
              " metrics_crc=%08x metrics_n=%zu%s\n",
              static_cast<std::uint64_t>(events),
              static_cast<std::int64_t>(rr.elapsed.count()), crc,
              rr.metrics.values.size(), rr.aborted ? " aborted=1" : "");
}

int cmd_run(const util::Options& opt) {
  const mpi::WorldConfig cfg = config_from_options(opt);
  const mpi::WorkloadSpec spec = workload_from_options(opt);
  mpi::ckpt::RestoreOptions ro;
  parse_checkpoint_arg(opt, ro);
  mpi::WorldConfig run_cfg = cfg;
  if (opt.get_bool("trace", false)) {
    // Arm the recorder through the config path so capture records it.
    run_cfg.run.trace_path = "/dev/null";
  }
  mpi::World world(run_cfg);
  world.set_workload(spec);
  mpi::ckpt::RunResult rr;
  {
    if (!ro.checkpoint_path.empty()) {
      mpi::ckpt::arm_checkpoints(world, ro.checkpoint_path,
                                 ro.checkpoint_events);
    }
    if (ro.kill_at > 0) {
      world.set_event_watchpoint(ro.kill_at,
                                 [&world] { world.abort_run(); });
    }
    rr.elapsed = world.run_workload();
    rr.aborted = world.aborted();
    rr.metrics = world.metrics().snapshot();
  }
  if (const auto mp = opt.get("metrics")) rr.metrics.write_json(*mp);
  print_result(rr);
  return 0;
}

int cmd_restore(const util::Options& opt) {
  if (opt.positional().size() < 2) {
    std::fprintf(stderr, "usage: mvflow_ckpt restore SNAPSHOT [options]\n");
    return 1;
  }
  mpi::ckpt::WorldSnapshot snap =
      mpi::ckpt::read_snapshot(opt.positional()[1]);
  // The worker count is a wall-clock knob, not simulation state, so a
  // restore may override what the snapshot recorded: the audit still
  // passes because it never influences the event order. A snapshot written
  // by an 8-worker sharded run restores bit-identically at 1 worker.
  if (const auto th = opt.get("threads")) {
    snap.config.engine_threads = static_cast<int>(opt.get_int("threads", 0));
  }
  mpi::ckpt::RestoreOptions ro;
  parse_checkpoint_arg(opt, ro);
  ro.tune = tune_from_options(opt);
  const mpi::ckpt::RunResult rr = mpi::ckpt::restore_run(snap, ro);
  if (const auto mp = opt.get("metrics")) rr.metrics.write_json(*mp);
  print_result(rr);
  return 0;
}

int cmd_inspect(const util::Options& opt) {
  if (opt.positional().size() < 2) {
    std::fprintf(stderr, "usage: mvflow_ckpt inspect SNAPSHOT\n");
    return 1;
  }
  const std::string path = opt.positional()[1];
  const std::vector<std::byte> file = util::serial::read_file(path);
  const auto sections = util::serial::parse_sections(file);
  const mpi::ckpt::WorldSnapshot snap = mpi::ckpt::decode(file);
  std::printf("snapshot %s: %zu bytes, version %u, %zu sections\n",
              path.c_str(), file.size(), util::serial::kVersion,
              sections.size());
  for (const auto& s : sections) {
    std::printf("  section %-8s %10zu bytes\n",
                mpi::ckpt::section_name(s.tag).c_str(), s.bytes.size());
  }
  std::printf("  workload  %s\n", snap.workload.to_string().c_str());
  std::printf("  barrier   %" PRIu64 " executed events\n", snap.barrier);
  std::printf("  engine    %s\n",
              snap.config.engine_threads > 0
                  ? ("sharded x" +
                     std::to_string(snap.config.engine_threads)).c_str()
                  : "serial");
  std::printf("  world     %d ranks, scheme=%s, prepost=%d%s%s\n",
              snap.config.num_ranks,
              std::string(flowctl::to_string(snap.config.flow.scheme)).c_str(),
              snap.config.flow.prepost,
              snap.config.device.auto_reconnect ? ", auto_reconnect" : "",
              snap.trace_armed ? ", trace armed" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opt(argc, argv);
  const std::string cmd =
      opt.positional().empty() ? "" : opt.positional()[0];
  try {
    if (cmd == "run") return cmd_run(opt);
    if (cmd == "restore") return cmd_restore(opt);
    if (cmd == "inspect") return cmd_inspect(opt);
    std::fprintf(stderr,
                 "usage: mvflow_ckpt run|restore|inspect [options]\n");
    return 1;
  } catch (const util::serial::SnapshotError& e) {
    std::fprintf(stderr, "SNAPSHOT_ERROR: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
