#include "probes.hpp"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "ib/cq.hpp"
#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace sim = mvflow::sim;
namespace ib = mvflow::ib;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Each probe measures at least this long, so one run's figure is not a
/// handful of samples.
constexpr double kProbeNs = 0.25e9;

}  // namespace

double process_ns_per_switch(int procs) {
  // Rounds per process chosen so every probe does ~10k round trips.
  const int rounds = std::max(4, 10000 / procs);
  sim::Engine engine;
  std::vector<std::unique_ptr<sim::Process>> ps;
  ps.reserve(static_cast<std::size_t>(procs));
  for (int i = 0; i < procs; ++i) {
    ps.push_back(std::make_unique<sim::Process>(
        engine, "probe" + std::to_string(i), [rounds](sim::Process& p) {
          for (int r = 0; r < rounds; ++r) p.delay(sim::nanoseconds(1));
        }));
  }
  const auto t0 = Clock::now();
  engine.run();
  const double ns = ns_since(t0);
  return ns / (static_cast<double>(procs) * rounds);
}

namespace {

struct HoldState {
  sim::Engine* engine = nullptr;
  std::uint64_t rng = 0;
  std::uint64_t fired = 0;
  std::uint64_t target = 0;
};

struct Hold {
  HoldState* s;
  void operator()() const {
    if (++s->fired >= s->target) return;
    s->rng ^= s->rng << 13;
    s->rng ^= s->rng >> 7;
    s->rng ^= s->rng << 17;
    s->engine->schedule_after(sim::nanoseconds(1 + static_cast<std::int64_t>(s->rng % 4096)),
                              Hold{s});
  }
};

}  // namespace

double engine_ns_per_event(std::size_t depth, std::uint64_t seed) {
  if (depth == 0) depth = 1;
  double total_ns = 0;
  std::uint64_t total_events = 0;
  while (total_ns < kProbeNs) {
    sim::Engine engine;
    HoldState s;
    s.engine = &engine;
    s.rng = seed | 1;
    s.target = 200000;
    for (std::size_t i = 0; i < depth; ++i)
      engine.schedule_after(sim::nanoseconds(static_cast<std::int64_t>(i % 4096)),
                            Hold{&s});
    const auto t0 = Clock::now();
    engine.run();
    total_ns += ns_since(t0);
    total_events += engine.executed_events();
  }
  return total_ns / static_cast<double>(total_events);
}

double ib_ring_ns_per_msg(std::uint32_t bytes, int window) {
  // Bind a (disabled) recorder as World does on its threads, so the probe
  // takes the production instrumentation fast path.
  mvflow::obs::FlightRecorder rec;
  mvflow::obs::RecorderBinding binding(&rec);
  sim::Engine engine;
  ib::Fabric fabric(engine, ib::FabricConfig{}, 2);
  std::vector<std::byte> txbuf(bytes), rxbuf(bytes);
  const ib::MemoryRegionHandle txmr =
      fabric.hca(0).register_memory(txbuf, ib::Access::local_read);
  const ib::MemoryRegionHandle rxmr =
      fabric.hca(1).register_memory(rxbuf, ib::Access::local_write);
  auto cq0 = fabric.hca(0).create_cq();
  auto cq1 = fabric.hca(1).create_cq();
  auto tx = fabric.hca(0).create_qp(cq0, cq0);
  auto rx = fabric.hca(1).create_qp(cq1, cq1);
  ib::Fabric::connect(*tx, *rx);

  ib::RecvWr rwr;
  rwr.local_addr = rxbuf.data();
  rwr.length = bytes;
  rwr.lkey = rxmr.lkey;
  ib::SendWr swr;
  swr.local_addr = txbuf.data();
  swr.length = bytes;
  swr.lkey = txmr.lkey;

  std::uint64_t msgs = 0;
  const auto t0 = Clock::now();
  double ns = 0;
  while (ns < kProbeNs) {
    for (int w = 0; w < window; ++w) rx->post_recv(rwr);
    for (int w = 0; w < window; ++w) tx->post_send(swr);
    engine.run();
    int completions = 0;
    while (auto c = cq0->poll()) completions += c->ok() ? 1 : 0;
    while (auto c = cq1->poll()) completions += c->ok() ? 1 : 0;
    mvflow::util::check(completions == 2 * window,
                        "ib ring probe: missing or failed completions");
    msgs += static_cast<std::uint64_t>(window);
    ns = ns_since(t0);
  }
  return ns / static_cast<double>(msgs);
}

}  // namespace perfbench
