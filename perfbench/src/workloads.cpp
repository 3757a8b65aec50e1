#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <span>

#include "mpi/communicator.hpp"
#include "nas/kernel.hpp"
#include "sim/scheduler.hpp"
#include "spans.hpp"

namespace perfbench {

using mvflow::flowctl::Scheme;
using mvflow::mpi::Communicator;
using mvflow::mpi::Rank;
using mvflow::mpi::RequestPtr;
using mvflow::mpi::World;
using mvflow::mpi::WorldConfig;

namespace {

// ---- workload sizes (README.md, "Sizes") -------------------------------
constexpr int kEagerReps = 50;      // bw_eager: 50 x (100 + 1 ack) msgs
constexpr int kLargeReps = 36;      // bw_large: 36 x (4 + 1 ack) msgs
constexpr int kHotspotRounds = 24;  // hotspot_1024: 24 x 8 x 2 msgs
constexpr int kHotspotSpokes = 8;
// nas_lu runs LU's default iteration count (NasParams::iterations = 0).

constexpr mvflow::mpi::Tag kDataTag = 7;
constexpr mvflow::mpi::Tag kAckTag = 8;
constexpr std::uint32_t kAckBytes = 4;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Payload key of one message: a function of the seed and the message's
/// position in the workload, so a misdelivered or torn message fails the
/// check on the receiving side.
std::uint64_t msg_key(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c) {
  return splitmix64(seed ^ splitmix64(a ^ splitmix64(b ^ splitmix64(c))));
}

/// Word i of a payload is key + (i+1) * golden: cheap enough to fill and
/// check a MiB per message, and different for every key and offset.
constexpr std::uint64_t kStride = 0x9E3779B97F4A7C15ull;

void fill(std::span<std::byte> buf, std::uint64_t key) {
  const std::size_t words = buf.size() / 8;
  std::byte* p = buf.data();
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t w = key + (i + 1) * kStride;
    std::memcpy(p + 8 * i, &w, 8);
  }
  const std::uint64_t tail = key + (words + 1) * kStride;
  std::memcpy(p + 8 * words, &tail, buf.size() - 8 * words);
}

bool check(std::span<const std::byte> buf, std::uint64_t key) {
  const std::size_t words = buf.size() / 8;
  const std::byte* p = buf.data();
  bool ok = true;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, p + 8 * i, 8);
    ok &= w == key + (i + 1) * kStride;
  }
  const std::uint64_t tail = key + (words + 1) * kStride;
  return ok && std::memcmp(p + 8 * words, &tail, buf.size() - 8 * words) == 0;
}

/// Failures seen by the rank bodies of one episode. Rank bodies run on
/// their own threads (one at a time), hence the mutex.
class Verdict {
 public:
  void fail(std::string what) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (error_.empty()) error_ = std::move(what);
  }
  std::string error() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

 private:
  mutable std::mutex mu_;
  std::string error_;
};

void expect(Verdict& v, bool ok, const char* what, Rank rank, int i) {
  if (!ok)
    v.fail(std::string(what) + " on rank " + std::to_string(rank) +
           " at message " + std::to_string(i));
}

using Body = World::RankBody;

// Two ranks stream `window` blocking small sends per repetition; the
// receiver answers each window with one ack (the paper's §6.2.2 test).
Body bw_eager_body(std::uint64_t seed, Verdict& v, std::uint32_t bytes,
                   int window) {
  return [seed, &v, bytes, window](Communicator& comm) {
    std::vector<std::byte> buf(bytes), ack(kAckBytes);
    for (int rep = 0; rep < kEagerReps; ++rep) {
      if (comm.rank() == 0) {
        for (int i = 0; i < window; ++i) {
          fill(buf, msg_key(seed, 0, rep, i));
          comm.send(buf, 1, kDataTag);
        }
        comm.recv(ack, 1, kAckTag);
        expect(v, check(ack, msg_key(seed, 1, rep, 0)), "bad ack", 0, rep);
      } else {
        for (int i = 0; i < window; ++i) {
          comm.recv(buf, 0, kDataTag);
          expect(v, check(buf, msg_key(seed, 0, rep, i)), "bad payload", 1, i);
        }
        fill(ack, msg_key(seed, 1, rep, 0));
        comm.send(ack, 0, kAckTag);
      }
    }
  };
}

/// bw_large's payload buffers, `window` per rank, allocated once per
/// process: first-touching 8 MiB in every episode would time the host's
/// page-fault path, not the simulator. Payload keys change every episode,
/// so a message that never arrives cannot pass on a stale buffer.
std::vector<std::vector<std::byte>>* large_buffers(int window,
                                                   std::uint32_t bytes) {
  static std::vector<std::vector<std::byte>> bufs[2];
  for (auto& b : bufs)
    if (b.empty())
      b.assign(static_cast<std::size_t>(window), std::vector<std::byte>(bytes));
  return bufs;
}

// Two ranks move `window` non-blocking 1 MiB messages per repetition —
// rendezvous: RTS/CTS, an RDMA write, FIN, through the pin-down cache.
Body bw_large_body(std::uint64_t seed, Verdict& v, std::uint32_t bytes,
                   int window) {
  return [seed, &v, window, all = large_buffers(window, bytes)](
             Communicator& comm) {
    auto& bufs = all[comm.rank()];
    std::vector<std::byte> ack(kAckBytes);
    std::vector<RequestPtr> reqs;
    for (int rep = 0; rep < kLargeReps; ++rep) {
      reqs.clear();
      if (comm.rank() == 0) {
        for (int i = 0; i < window; ++i) {
          auto& b = bufs[static_cast<std::size_t>(i)];
          fill(b, msg_key(seed, 0, rep, i));
          reqs.push_back(comm.isend(b, 1, kDataTag));
        }
        comm.wait_all(reqs);
        comm.recv(ack, 1, kAckTag);
        expect(v, check(ack, msg_key(seed, 1, rep, 0)), "bad ack", 0, rep);
      } else {
        for (int i = 0; i < window; ++i)
          reqs.push_back(
              comm.irecv(bufs[static_cast<std::size_t>(i)], 0, kDataTag));
        comm.wait_all(reqs);
        for (int i = 0; i < window; ++i)
          expect(v,
                 check(bufs[static_cast<std::size_t>(i)],
                       msg_key(seed, 0, rep, i)),
                 "bad payload", 1, i);
        fill(ack, msg_key(seed, 1, rep, 0));
        comm.send(ack, 0, kAckTag);
      }
    }
  };
}

/// The hotspot's spokes: kHotspotSpokes distinct ranks in [1, ranks),
/// drawn from the seed.
std::vector<Rank> hotspot_spokes(std::uint64_t seed, int ranks) {
  std::vector<Rank> spokes;
  std::uint64_t x = seed;
  while (static_cast<int>(spokes.size()) < kHotspotSpokes) {
    x = splitmix64(x);
    const Rank r = 1 + static_cast<Rank>(x % static_cast<std::uint64_t>(ranks - 1));
    if (std::find(spokes.begin(), spokes.end(), r) == spokes.end())
      spokes.push_back(r);
  }
  return spokes;
}

// One hub exchanges `bytes` with each spoke per round; every other rank of
// the on-demand world stays idle and never opens a connection.
Body hotspot_body(std::uint64_t seed, Verdict& v, std::uint32_t bytes,
                  int ranks) {
  return [seed, &v, bytes, spokes = hotspot_spokes(seed, ranks)](
             Communicator& comm) {
    std::vector<std::byte> buf(bytes);
    const auto me = std::find(spokes.begin(), spokes.end(), comm.rank());
    if (comm.rank() == 0) {
      for (int r = 0; r < kHotspotRounds; ++r) {
        for (const Rank p : spokes) {
          comm.recv(buf, p, kDataTag);
          expect(v, check(buf, msg_key(seed, 0, r, p)), "bad spoke payload",
                 0, r);
          fill(buf, msg_key(seed, 1, r, p));
          comm.send(buf, p, kDataTag);
        }
      }
    } else if (me != spokes.end()) {
      const Rank p = comm.rank();
      for (int r = 0; r < kHotspotRounds; ++r) {
        fill(buf, msg_key(seed, 0, r, p));
        comm.send(buf, 0, kDataTag);
        comm.recv(buf, 0, kDataTag);
        expect(v, check(buf, msg_key(seed, 1, r, p)), "bad hub payload", p, r);
      }
    }
  };
}

// The 8-rank LU proxy (nas::run_lu, what nas::run_app runs for App::lu),
// inside the benchmark's own World so the traced pass can arm it.
Body nas_lu_body(std::uint64_t seed, Verdict& v) {
  return [seed, &v](Communicator& comm) {
    mvflow::nas::NasParams params;
    params.seed = seed;
    const mvflow::nas::AppOutcome out = mvflow::nas::run_lu(comm, params);
    expect(v, out.verified, "LU verification failed", comm.rank(), 0);
  };
}

Body make_body(const Workload& w, std::uint64_t seed, Verdict& v) {
  if (w.name == "bw_eager") return bw_eager_body(seed, v, w.msg_bytes, w.window);
  if (w.name == "bw_large") return bw_large_body(seed, v, w.msg_bytes, w.window);
  if (w.name == "hotspot_1024") return hotspot_body(seed, v, w.msg_bytes, w.ranks);
  return nas_lu_body(seed, v);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Counts count(World& world) {
  const mvflow::mpi::WorldStats s = world.collect_stats();
  Counts c;
  c.sim_elapsed_ns = s.elapsed.count();
  c.msgs = s.flow_totals.credited_sent;
  c.mpi_messages = s.total_messages();
  c.ecm_sent = s.total_ecm();
  c.backlog_entered = s.total_backlogged();
  c.growth_events = s.flow_totals.growth_events;
  c.max_posted = static_cast<std::uint64_t>(s.max_posted_buffers());
  for (const mvflow::mpi::DeviceStats& d : s.devices) {
    c.rndv_conversions += d.small_converted_to_rndv;
    c.rndv_started += d.rndv_started;
    c.reg_cache_hits += d.reg_cache_hits;
    c.reg_cache_misses += d.reg_cache_misses;
  }
  c.packets = s.fabric.packets;
  c.wire_bytes = s.fabric.wire_bytes;
  c.rnr_naks = s.total_rnr_naks();
  c.retransmits = s.total_retransmitted_messages();
  const mvflow::sim::EnginePerfStats& e = world.engine().perf_stats();
  c.events_executed = e.executed;
  c.events_scheduled = e.scheduled;
  c.events_cancelled = e.cancelled_before_fire;
  c.peak_pending = e.peak_heap_depth;
  for (Rank r = 0; r < world.num_ranks(); ++r)
    c.connections += world.device(r).endpoint_count();
  return c;
}

}  // namespace

std::uint64_t Counts::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  visit([&h](const char*, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  });
  return h;
}

WorldConfig Workload::config() const {
  WorldConfig cfg;
  cfg.run = cfg.run.quiet();
  cfg.engine_threads = 0;  // the serial engine, the reference for every result
  cfg.num_ranks = ranks;
  cfg.flow.scheme = scheme;
  cfg.flow.prepost = prepost;
  cfg.on_demand_connections = on_demand;
  return cfg;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"bw_eager", 2, 4, 100, Scheme::user_static, 10, false},
      {"bw_large", 2, 1u << 20, 4, Scheme::user_dynamic, 100, false},
      {"hotspot_1024", 1024, 128, 1, Scheme::user_dynamic, 16, true},
      {"nas_lu", 8, 128, 10, Scheme::user_static, 10, false},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

EpisodeResult run_episode(const Workload& w, std::uint64_t seed, Spans* spans,
                          std::uint32_t episode) {
  EpisodeResult out;
  Verdict verdict;
  const auto t0 = std::chrono::steady_clock::now();
  {
    Spans::Scope ep(spans, "episode", episode);
    WorldConfig cfg = w.config();
    cfg.profile = spans != nullptr;
    std::unique_ptr<World> world;
    try {
      {
        Spans::Scope s(spans, "mpi.world_ctor", episode);
        world = std::make_unique<World>(cfg);
        if (spans != nullptr) world->recorder().enable();
      }
      out.scheduler = std::string(mvflow::sim::to_string(world->engine().sched_kind()));
      // Payload keys differ in every episode of the process (see
      // large_buffers); the simulated run does not depend on them.
      static std::uint64_t episodes_run = 0;
      const Body body =
          make_body(w, splitmix64(seed) + ++episodes_run, verdict);
      {
        Spans::Scope s(spans, "mpi.run", episode);
        world->run(body);
      }
      {
        Spans::Scope s(spans, "mpi.collect_stats", episode);
        out.counts = count(*world);
      }
      if (spans != nullptr) {
        {
          Spans::Scope s(spans, "obs.snapshot", episode);
          const mvflow::obs::Snapshot snap = world->metrics().snapshot();
          (void)snap;
        }
        {
          Spans::Scope s(spans, "obs.prof_analyze", episode);
          out.obs.payload = world->prof_analysis().payload;
        }
        out.obs.recorder_events = world->recorder().recorded();
      }
      out.error = verdict.error();
    } catch (const std::exception& e) {
      out.error = std::string("exception: ") + e.what();
    } catch (...) {
      out.error = "unknown exception";
    }
    Spans::Scope s(spans, "mpi.world_dtor", episode);
    world.reset();
  }
  out.host_s = seconds_since(t0);
  return out;
}

double run_setup(const Workload& w) {
  const auto t0 = std::chrono::steady_clock::now();
  {
    World world(w.config());
    world.run([](Communicator&) {});
  }
  return seconds_since(t0);
}

}  // namespace perfbench
