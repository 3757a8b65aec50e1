#include "mpi/checkpoint.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "exp/runner.hpp"
#include "util/check.hpp"

namespace mvflow::mpi::ckpt {

namespace serial = util::serial;

std::string section_name(std::uint32_t tag) {
  switch (tag) {
    case kSecConfig: return "config";
    case kSecWorkload: return "workload";
    case kSecBarrier: return "barrier";
    case kSecEngine: return "engine";
    case kSecFabric: return "fabric";
    case kSecDevices: return "devices";
    case kSecMetrics: return "metrics";
    case kSecTrace: return "trace";
  }
  return "unknown(0x" + std::to_string(tag) + ")";
}

namespace {

// ---- WorldConfig <-> bytes -------------------------------------------

void encode_config(serial::BufWriter& w, const WorldConfig& cfg,
                   bool trace_armed, std::uint64_t trace_capacity) {
  w.i32(cfg.num_ranks);
  w.b(cfg.on_demand_connections);
  w.i64(cfg.max_sim_time.count());
  w.b(trace_armed);
  w.u64(trace_capacity);
  // Whether the profiler was armed (capture() folds $MVFLOW_PROF in): its
  // "latency."/"prof." metrics are audited state, so the replay must
  // profile too.
  w.b(cfg.profile);
  // Engine mode travels with the snapshot: a sharded world's engine/trace
  // sections only audit cleanly against a sharded replay (any worker count)
  // and a serial one against serial, so the restore must come back up in
  // the mode that captured. mvflow_ckpt --threads can override within a
  // mode (e.g. restore a t8 capture with t2).
  w.i32(cfg.engine_threads);

  const flowctl::Config& f = cfg.flow;
  w.u8(static_cast<std::uint8_t>(f.scheme));
  w.i32(f.prepost);
  w.i32(f.ecm_threshold);
  w.i32(f.growth_step);
  w.b(f.exponential_growth);
  w.i32(f.max_prepost);
  w.b(f.allow_decay);
  w.i32(f.decay_idle_msgs);

  const ib::FabricConfig& fb = cfg.fabric;
  w.f64(fb.bandwidth_bps);
  w.i64(fb.wire_latency.count());
  w.i64(fb.switch_latency.count());
  w.u32(fb.mtu);
  w.u32(fb.data_header_bytes);
  w.u32(fb.ack_bytes);
  w.i64(fb.tx_wqe_process.count());
  w.i64(fb.per_packet_tx.count());
  w.i64(fb.rx_process.count());
  w.i64(fb.rnr_timeout.count());
  w.i32(fb.rnr_retry_limit);
  w.i64(fb.transport_timeout.count());
  w.i64(fb.transport_timeout_cap.count());
  w.i32(fb.transport_retry_limit);
  w.b(fb.e2e_credit_pacing);

  const ib::FaultConfig& ft = fb.fault;
  w.u64(ft.seed);
  w.f64(ft.loss_prob);
  w.f64(ft.corrupt_prob);
  w.u64(ft.flaps.size());
  for (const ib::LinkFlap& lf : ft.flaps) {
    w.i32(lf.node);
    w.i64(lf.down.count());
    w.i64(lf.up.count());
  }
  w.u64(ft.scripted.size());
  for (const ib::ScriptedFault& sf : ft.scripted) {
    w.i32(sf.src_node);
    w.i32(sf.dst_node);
    w.i32(sf.kind);
    w.u64(sf.skip);
    w.b(sf.corrupt);
  }

  const DeviceConfig& d = cfg.device;
  w.u32(d.buffer_size);
  w.u32(d.control_reserve);
  w.i64(d.send_overhead.count());
  w.i64(d.recv_post_overhead.count());
  w.i64(d.eager_handle_overhead.count());
  w.i64(d.rts_handle_overhead.count());
  w.i64(d.ctrl_handle_overhead.count());
  w.i64(d.ctrl_send_overhead.count());
  w.f64(d.copy_bandwidth_bps);
  w.i64(d.reg_base.count());
  w.i64(d.reg_per_page.count());
  w.u64(d.page_size);
  w.b(d.reg_cache);
  w.u64(d.reg_cache_capacity);
  w.b(d.convert_backlogged_to_rndv);
  w.i64(d.connect_setup.count());
  w.b(d.auto_reconnect);
  w.i64(d.reconnect_delay.count());
}

/// Decode a one-byte enum whose enumerators run 0..`last`. The CRC only
/// proves the bytes are the ones written; a byte no enumerator names must
/// still be refused before it reaches a switch or a table index.
template <typename E>
E read_enum(serial::BufReader& r, const char* what, E last) {
  const std::uint8_t v = r.u8(what);
  if (v > static_cast<std::uint8_t>(last)) {
    throw serial::SnapshotError(std::string("snapshot field ") + what +
                                " holds " + std::to_string(v) +
                                ", which names no enumerator");
  }
  return static_cast<E>(v);
}

void decode_config(serial::BufReader& r, WorldConfig& cfg, bool& trace_armed,
                   std::uint64_t& trace_capacity) {
  cfg.num_ranks = r.i32("num_ranks");
  cfg.on_demand_connections = r.b("on_demand_connections");
  cfg.max_sim_time = sim::Duration(r.i64("max_sim_time"));
  trace_armed = r.b("trace_armed");
  trace_capacity = r.u64("trace_capacity");
  cfg.profile = r.b("profile");
  cfg.engine_threads = r.i32("engine_threads");

  flowctl::Config& f = cfg.flow;
  f.scheme = read_enum(r, "flow.scheme", flowctl::Scheme::user_dynamic);
  f.prepost = r.i32("flow.prepost");
  f.ecm_threshold = r.i32("flow.ecm_threshold");
  f.growth_step = r.i32("flow.growth_step");
  f.exponential_growth = r.b("flow.exponential_growth");
  f.max_prepost = r.i32("flow.max_prepost");
  f.allow_decay = r.b("flow.allow_decay");
  f.decay_idle_msgs = r.i32("flow.decay_idle_msgs");

  ib::FabricConfig& fb = cfg.fabric;
  fb.bandwidth_bps = r.f64("fabric.bandwidth_bps");
  fb.wire_latency = sim::Duration(r.i64("fabric.wire_latency"));
  fb.switch_latency = sim::Duration(r.i64("fabric.switch_latency"));
  fb.mtu = r.u32("fabric.mtu");
  fb.data_header_bytes = r.u32("fabric.data_header_bytes");
  fb.ack_bytes = r.u32("fabric.ack_bytes");
  fb.tx_wqe_process = sim::Duration(r.i64("fabric.tx_wqe_process"));
  fb.per_packet_tx = sim::Duration(r.i64("fabric.per_packet_tx"));
  fb.rx_process = sim::Duration(r.i64("fabric.rx_process"));
  fb.rnr_timeout = sim::Duration(r.i64("fabric.rnr_timeout"));
  fb.rnr_retry_limit = r.i32("fabric.rnr_retry_limit");
  fb.transport_timeout = sim::Duration(r.i64("fabric.transport_timeout"));
  fb.transport_timeout_cap =
      sim::Duration(r.i64("fabric.transport_timeout_cap"));
  fb.transport_retry_limit = r.i32("fabric.transport_retry_limit");
  fb.e2e_credit_pacing = r.b("fabric.e2e_credit_pacing");

  ib::FaultConfig& ft = fb.fault;
  ft.seed = r.u64("fault.seed");
  ft.loss_prob = r.f64("fault.loss_prob");
  ft.corrupt_prob = r.f64("fault.corrupt_prob");
  ft.flaps.clear();
  const std::uint64_t nflaps = r.u64("fault.flaps.count");
  for (std::uint64_t i = 0; i < nflaps; ++i) {
    ib::LinkFlap lf;
    lf.node = r.i32("flap.node");
    lf.down = sim::TimePoint(sim::Duration(r.i64("flap.down")));
    lf.up = sim::TimePoint(sim::Duration(r.i64("flap.up")));
    ft.flaps.push_back(lf);
  }
  ft.scripted.clear();
  const std::uint64_t nscripted = r.u64("fault.scripted.count");
  for (std::uint64_t i = 0; i < nscripted; ++i) {
    ib::ScriptedFault sf;
    sf.src_node = r.i32("scripted.src_node");
    sf.dst_node = r.i32("scripted.dst_node");
    sf.kind = r.i32("scripted.kind");
    sf.skip = r.u64("scripted.skip");
    sf.corrupt = r.b("scripted.corrupt");
    ft.scripted.push_back(sf);
  }

  DeviceConfig& d = cfg.device;
  d.buffer_size = r.u32("device.buffer_size");
  d.control_reserve = r.u32("device.control_reserve");
  d.send_overhead = sim::Duration(r.i64("device.send_overhead"));
  d.recv_post_overhead = sim::Duration(r.i64("device.recv_post_overhead"));
  d.eager_handle_overhead =
      sim::Duration(r.i64("device.eager_handle_overhead"));
  d.rts_handle_overhead = sim::Duration(r.i64("device.rts_handle_overhead"));
  d.ctrl_handle_overhead =
      sim::Duration(r.i64("device.ctrl_handle_overhead"));
  d.ctrl_send_overhead = sim::Duration(r.i64("device.ctrl_send_overhead"));
  d.copy_bandwidth_bps = r.f64("device.copy_bandwidth_bps");
  d.reg_base = sim::Duration(r.i64("device.reg_base"));
  d.reg_per_page = sim::Duration(r.i64("device.reg_per_page"));
  d.page_size = r.u64("device.page_size");
  d.reg_cache = r.b("device.reg_cache");
  d.reg_cache_capacity = r.u64("device.reg_cache_capacity");
  d.convert_backlogged_to_rndv = r.b("device.convert_backlogged_to_rndv");
  d.connect_setup = sim::Duration(r.i64("device.connect_setup"));
  d.auto_reconnect = r.b("device.auto_reconnect");
  d.reconnect_delay = sim::Duration(r.i64("device.reconnect_delay"));
}

// ---- state sections ---------------------------------------------------

serial::Section make_section(std::uint32_t tag, serial::BufWriter&& w) {
  return serial::Section{tag, w.take()};
}

/// The five live-state sections (engine/fabric/devices/metrics/trace),
/// serialized from the running world. Shared by capture() and the restore
/// audit, which is what makes the audit byte-exact by construction: both
/// sides go through the exact same serializers.
std::vector<serial::Section> capture_state_sections(World& world) {
  std::vector<serial::Section> out;

  serial::BufWriter eng;
  world.serialize_engine_state(eng);
  out.push_back(make_section(kSecEngine, std::move(eng)));

  serial::BufWriter fab;
  world.fabric().serialize_state(fab);
  out.push_back(make_section(kSecFabric, std::move(fab)));

  serial::BufWriter dev;
  dev.i32(world.num_ranks());
  for (Rank rk = 0; rk < world.num_ranks(); ++rk) {
    world.device(rk).serialize_state(dev);
  }
  out.push_back(make_section(kSecDevices, std::move(dev)));

  serial::BufWriter met;
  const obs::Snapshot snap = world.metrics().snapshot();
  met.u64(snap.values.size());
  for (const auto& [name, value] : snap.values) {
    met.str(name);
    met.f64(value);
  }
  out.push_back(make_section(kSecMetrics, std::move(met)));

  serial::BufWriter trc;
  world.serialize_trace_state(trc);
  out.push_back(make_section(kSecTrace, std::move(trc)));

  return out;
}

std::string checkpoint_file_path(const std::string& base, std::uint64_t k,
                                 bool multiple) {
  return multiple ? base + "." + std::to_string(k) : base;
}

/// Byte-compare the snapshot's state sections against the replayed world.
void audit(World& world, const WorldSnapshot& snap) {
  const std::vector<serial::Section> live = capture_state_sections(world);
  for (const serial::Section& want : snap.state) {
    const serial::Section* have = nullptr;
    for (const serial::Section& s : live) {
      if (s.tag == want.tag) {
        have = &s;
        break;
      }
    }
    if (have == nullptr) {
      throw serial::SnapshotError("restore audit: replayed world has no \"" +
                                  section_name(want.tag) + "\" section");
    }
    if (have->bytes == want.bytes) continue;
    std::size_t off = 0;
    const std::size_t n = std::min(have->bytes.size(), want.bytes.size());
    while (off < n && have->bytes[off] == want.bytes[off]) ++off;
    throw serial::SnapshotError(
        "restore audit: \"" + section_name(want.tag) +
        "\" section diverged from the checkpoint (snapshot " +
        std::to_string(want.bytes.size()) + " bytes, replay " +
        std::to_string(have->bytes.size()) + " bytes, first difference at " +
        "byte " + std::to_string(off) +
        ") — the replay is not bit-identical");
  }
}

}  // namespace

WorldSnapshot capture(World& world) {
  WorldSnapshot snap;
  snap.config = world.config();
  snap.config.profile = world.prof_enabled();
  snap.trace_armed = world.recorder().enabled();
  snap.trace_capacity = world.recorder().capacity();
  util::require(world.workload().has_value(),
                "checkpoint capture requires a registered workload "
                "(World::set_workload)");
  snap.workload = *world.workload();
  snap.barrier = world.executed_events();
  snap.state = capture_state_sections(world);
  return snap;
}

std::vector<std::byte> encode(const WorldSnapshot& snap) {
  std::vector<serial::Section> sections;

  serial::BufWriter cfg;
  encode_config(cfg, snap.config, snap.trace_armed, snap.trace_capacity);
  sections.push_back(make_section(kSecConfig, std::move(cfg)));

  serial::BufWriter wk;
  wk.str(snap.workload.name);
  wk.u64(snap.workload.params.size());
  for (const auto& [key, value] : snap.workload.params) {
    wk.str(key);
    wk.i64(value);
  }
  sections.push_back(make_section(kSecWorkload, std::move(wk)));

  serial::BufWriter bar;
  bar.u64(snap.barrier);
  sections.push_back(make_section(kSecBarrier, std::move(bar)));

  for (const serial::Section& s : snap.state) sections.push_back(s);
  return serial::frame_sections(sections);
}

WorldSnapshot decode(const std::vector<std::byte>& file) {
  const std::vector<serial::Section> sections = serial::parse_sections(file);
  const auto need = [&sections](std::uint32_t tag) -> const serial::Section& {
    const serial::Section* s = serial::find_section(sections, tag);
    if (s == nullptr) {
      throw serial::SnapshotError("snapshot is missing its \"" +
                                  section_name(tag) + "\" section");
    }
    return *s;
  };

  WorldSnapshot snap;
  {
    const serial::Section& s = need(kSecConfig);
    serial::BufReader r(s.bytes);
    decode_config(r, snap.config, snap.trace_armed, snap.trace_capacity);
    // Replays never inherit the capturing process's export paths.
    snap.config.run = exp::RunConfig{};
  }
  {
    const serial::Section& s = need(kSecWorkload);
    serial::BufReader r(s.bytes);
    snap.workload.name = r.str("workload.name");
    const std::uint64_t n = r.u64("workload.params.count");
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string key = r.str("workload.param.key");
      const std::int64_t value = r.i64("workload.param.value");
      snap.workload.params[std::move(key)] = value;
    }
  }
  {
    const serial::Section& s = need(kSecBarrier);
    serial::BufReader r(s.bytes);
    snap.barrier = r.u64("barrier");
  }
  for (const serial::Section& s : sections) {
    if (s.tag == kSecEngine || s.tag == kSecFabric || s.tag == kSecDevices ||
        s.tag == kSecMetrics || s.tag == kSecTrace) {
      snap.state.push_back(s);
    }
  }
  if (snap.state.empty()) {
    throw serial::SnapshotError("snapshot carries no state sections");
  }
  return snap;
}

void write_snapshot(const WorldSnapshot& snap, const std::string& path) {
  serial::write_file_atomic(path, encode(snap));
}

WorldSnapshot read_snapshot(const std::string& path) {
  return decode(serial::read_file(path));
}

void arm_checkpoints(World& world, const std::string& path,
                     const std::vector<std::uint64_t>& events) {
  const bool multiple = events.size() > 1;
  for (const std::uint64_t k : events) {
    const std::string file = checkpoint_file_path(path, k, multiple);
    world.set_event_watchpoint(k, [&world, file] {
      write_snapshot(capture(world), file);
    });
  }
}

namespace {

RunResult run_world(World& world, const WorkloadSpec& spec,
                    const RestoreOptions& opts,
                    const WorldSnapshot* audit_against) {
  world.set_workload(spec);
  bool audited = false;
  if (audit_against != nullptr) {
    world.set_event_watchpoint(audit_against->barrier,
                               [&world, audit_against, &opts, &audited] {
      audit(world, *audit_against);
      audited = true;
      if (opts.tune.any()) {
        for (Rank rk = 0; rk < world.num_ranks(); ++rk) {
          world.device(rk).retune(opts.tune);
        }
      }
      if (!opts.checkpoint_path.empty()) {
        arm_checkpoints(world, opts.checkpoint_path, opts.checkpoint_events);
      }
    });
  } else if (!opts.checkpoint_path.empty()) {
    arm_checkpoints(world, opts.checkpoint_path, opts.checkpoint_events);
  }
  if (opts.kill_at > 0) {
    world.set_event_watchpoint(opts.kill_at, [&world] { world.abort_run(); });
  }

  RunResult out;
  out.elapsed = world.run_workload();
  if (audit_against != nullptr && !audited) {
    throw serial::SnapshotError(
        "restore replay finished after " +
        std::to_string(world.executed_events()) +
        " events without reaching the checkpoint barrier (" +
        std::to_string(audit_against->barrier) +
        ") — wrong workload or diverged run");
  }
  out.aborted = world.aborted();
  out.metrics = world.metrics().snapshot();
  out.stats = world.collect_stats();
  if (world.prof_enabled()) out.profile = world.prof_analysis();
  return out;
}

}  // namespace

RunResult restore_run(const WorldSnapshot& snap, const RestoreOptions& opts) {
  World world(snap.config);
  if (snap.trace_armed) {
    world.recorder().enable(snap.trace_capacity != 0
                                ? snap.trace_capacity
                                : obs::FlightRecorder::kDefaultCapacity);
  }
  return run_world(world, snap.workload, opts, &snap);
}

RunResult run_reference(const WorldConfig& cfg, const WorkloadSpec& spec,
                        const RestoreOptions& opts) {
  World world(cfg);
  return run_world(world, spec, opts, nullptr);
}

std::vector<ForkOutcome> fork_sweep(const std::string& path,
                                    const std::vector<ForkBranch>& branches,
                                    int jobs) {
  // One decode up front: each branch replays from its own private copy of
  // the parsed snapshot, so concurrent branches share no mutable state.
  const WorldSnapshot snap = read_snapshot(path);
  std::vector<std::function<ForkOutcome()>> work;
  work.reserve(branches.size());
  for (const ForkBranch& br : branches) {
    work.push_back([snap, br]() -> ForkOutcome {
      RestoreOptions opts;
      opts.tune = br.tune;
      const RunResult rr = restore_run(snap, opts);
      return ForkOutcome{br.label, rr.elapsed, rr.metrics};
    });
  }
  return exp::SweepRunner(jobs).run<ForkOutcome>(work);
}

}  // namespace mvflow::mpi::ckpt
