// perfbench: host cost per simulated MPI message, end to end and per layer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expect-digest HEX] [--artefact PATH]
//
// --trace 0 measures the workload with all observability off and prints the
// end-to-end metrics. --trace 1 splits the time between an untraced pass and
// a traced pass (flight recorder + causal profiler armed, host spans around
// every public call), runs the three layer probes, writes the spans and the
// per-layer numbers as one Chrome-trace file to --artefact, and prints the
// per-layer metrics. Either way the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cpu.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::optional<std::uint64_t> expect_digest;
  std::string artefact;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--expect-digest HEX] "
               "[--artefact PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (k == "--expect-digest") {
      a.expect_digest = std::strtoull(v, &end, 16);
    } else if (k == "--artefact") {
      a.artefact = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 120)) usage("--seconds must be in (0, 120]");
  return a;
}

/// WorldConfig defaults snapshot MVFLOW_ENGINE_THREADS, MVFLOW_SCHEDULER,
/// MVFLOW_AUDIT, MVFLOW_TRACE, MVFLOW_PROF, MVFLOW_METRICS, ... from the
/// environment; any of them would silently change what is measured.
void refuse_mvflow_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MVFLOW_", 7) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: MVFLOW_* "
                   "variables change the simulator's configuration\n",
                   *e);
      std::exit(2);
    }
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the sample
/// at sorted index n-11. Fewer than eleven samples give the maximum.
struct Tail {
  double value = 0;
  double percentile = 100;
};
Tail tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) return {v.empty() ? 0 : v.back(), 100};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};
CpuTimes cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return {s(ru.ru_utime), s(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double secs(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Correctness bookkeeping shared by every episode of a run: an episode
/// fails on a verification miss, an exception, or a digest that differs
/// from the reference (the recorded digest when given, else the run's
/// first episode). admit() sets the episode's `ok`.
struct Gate {
  std::optional<std::uint64_t> reference;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  bool admit(EpisodeResult& r) {
    ++attempted;
    std::string why = r.error;
    if (why.empty()) {
      const std::uint64_t d = r.counts.digest();
      if (!reference) reference = d;
      if (d != *reference) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "digest %016" PRIx64 " != %016" PRIx64,
                      d, *reference);
        why = buf;
      }
    }
    r.ok = why.empty();
    if (r.ok) return true;
    ++failed;
    if (first_error.empty()) first_error = why;
    return false;
  }
};

constexpr std::size_t kMinSetupSamples = 11;
constexpr double kSetupShare = 0.1;
constexpr int kWarmupEpisodes = 2;
/// Fewest timed episodes of the end-to-end pass (enough for a tail with ten
/// samples beyond it) and of each pass of a traced run.
constexpr std::size_t kMinTimedEpisodes = 11;
constexpr std::size_t kMinTracedRunEpisodes = 3;
// Per pass, so a traced run (three passes and the probes) still ends well
// inside run.py's timeout even when episodes are far slower than expected.
constexpr double kHardCapSeconds = 45;

/// Untraced measurement of one workload.
struct Pass {
  std::vector<double> episode_ms;
  std::uint64_t msgs = 0;
  double host_s = 0;
  double setup_s = 0;
  std::size_t setup_samples = 0;
  double sys_cpu_share = 0;
  Counts reference;  ///< exact counts of the first passing episode
  std::string scheduler;

  double msgs_per_host_s() const {
    return host_s > 0 ? static_cast<double>(msgs) / host_s : 0;
  }
};

/// Episodes of one pass, with the CPU time they spent.
struct Episodes {
  std::vector<EpisodeResult> results;
  CpuTimes cpu;
};

/// Run episodes until `seconds` have passed (and at least `min_episodes`,
/// within the hard cap), each through the gate. `between` runs after each
/// episode with the seconds elapsed so far; its time counts toward
/// `seconds` but not toward any episode.
template <typename Between>
Episodes timed_episodes(const Workload& w, std::uint64_t seed, double seconds,
                        std::size_t min_episodes, Gate& gate, Spans* spans,
                        std::uint32_t& episode, Between&& between) {
  Episodes out;
  const auto t0 = Clock::now();
  while (secs(t0) < kHardCapSeconds &&
         (secs(t0) < seconds || out.results.size() < min_episodes)) {
    const CpuTimes c0 = cpu_now();
    EpisodeResult r = run_episode(w, seed, spans, ++episode);
    const CpuTimes c1 = cpu_now();
    out.cpu.user_s += c1.user_s - c0.user_s;
    out.cpu.sys_s += c1.sys_s - c0.sys_s;
    gate.admit(r);
    out.results.push_back(std::move(r));
    between(secs(t0));
  }
  return out;
}

Pass measure(const Workload& w, std::uint64_t seed, double seconds,
             std::size_t min_episodes, Gate& gate) {
  Pass p;
  std::uint32_t episode = 0;
  for (int i = 0; i < kWarmupEpisodes; ++i) {
    EpisodeResult r = run_episode(w, seed, nullptr, ++episode);
    gate.admit(r);
  }

  // Set-up samples are interleaved with the episodes, taking about
  // kSetupShare of the run, so their median covers the same stretch of
  // host time as the episodes do.
  std::vector<double> setups;
  double setup_spent = 0;
  const Episodes eps = timed_episodes(
      w, seed, seconds, min_episodes, gate, nullptr, episode,
      [&](double elapsed) {
        while (setup_spent < kSetupShare * elapsed) {
          setups.push_back(run_setup(w));
          setup_spent += setups.back();
        }
      });
  while (setups.size() < kMinSetupSamples) setups.push_back(run_setup(w));
  p.setup_s = median(setups);
  p.setup_samples = setups.size();

  const double cpu = eps.cpu.user_s + eps.cpu.sys_s;
  p.sys_cpu_share = cpu > 0 ? eps.cpu.sys_s / cpu : 0;
  for (const EpisodeResult& r : eps.results) {
    p.episode_ms.push_back(r.host_s * 1e3);
    p.host_s += r.host_s;
    p.msgs += r.counts.msgs;
    if (r.ok && p.scheduler.empty()) {
      p.reference = r.counts;
      p.scheduler = r.scheduler;
    }
  }
  return p;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string provenance_json(const Workload& w, const Args& a,
                            const std::string& scheduler, int cpu) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %.17g, \"scheduler\": \"%s\", \"engine\": "
                "\"serial\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"nproc\": %ld, \"pinned_cpu\": %d}",
                std::string(w.name).c_str(), a.seed, a.seconds,
                scheduler.c_str(), PERFBENCH_BUILD_TYPE,
                kCompiler, sysconf(_SC_NPROCESSORS_ONLN), cpu);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("%-34s %18.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> end_to_end(const Pass& p, const Gate& gate) {
  const Tail t = tail(p.episode_ms);
  const std::size_t n = p.episode_ms.size();
  char note[160];
  std::vector<Metric> ms;
  std::snprintf(note, sizeof note, "(%" PRIu64 " msgs in %.3f host s)", p.msgs,
                p.host_s);
  ms.push_back({"msgs_per_host_s", p.msgs_per_host_s(), "msg/s", note});
  std::snprintf(note, sizeof note, "(median of %zu episodes)", n);
  ms.push_back({"episode_ms_p50", median(p.episode_ms), "ms", note});
  std::snprintf(note, sizeof note, "(p%.1f of %zu episodes)", t.percentile, n);
  ms.push_back({"episode_ms_tail", t.value, "ms", note});
  std::snprintf(note, sizeof note, "(median of %zu set-ups)", p.setup_samples);
  ms.push_back({"setup_s", p.setup_s, "s", note});
  ms.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "(ru_maxrss)"});
  ms.push_back({"sim_elapsed_us",
                static_cast<double>(p.reference.sim_elapsed_ns) / 1e3,
                "sim_us", "(simulated time of one episode)"});
  std::snprintf(note, sizeof note,
                "(failed_share %.6f: %" PRIu64 " failed of %" PRIu64 " attempted)",
                ratio(static_cast<double>(gate.failed),
                      static_cast<double>(gate.attempted)),
                gate.failed, gate.attempted);
  ms.push_back({"ok_share",
                ratio(static_cast<double>(gate.attempted - gate.failed),
                      static_cast<double>(gate.attempted)),
                "share", note});
  return ms;
}

/// msgs per host second over `eps`.
double rate(const std::vector<EpisodeResult>& eps) {
  double host_s = 0;
  std::uint64_t msgs = 0;
  for (const EpisodeResult& r : eps) {
    host_s += r.host_s;
    msgs += r.counts.msgs;
  }
  return host_s > 0 ? static_cast<double>(msgs) / host_s : 0;
}

/// The traced pass, an untraced pass at the starting CPU placement, and the
/// probes; returns the per-layer metrics.
std::vector<Metric> per_layer(const Workload& w, const Args& a, const Pass& p,
                              Gate& gate, int cpu) {
  Spans spans;
  std::uint32_t episode = 0;
  {
    EpisodeResult warm = run_episode(w, a.seed, &spans, ++episode);
    gate.admit(warm);
  }
  const std::vector<EpisodeResult> eps =
      timed_episodes(w, a.seed, a.seconds / 4, kMinTracedRunEpisodes, gate,
                     &spans, episode, [](double) {})
          .results;

  unpin();
  double unpinned_rate;
  {
    Spans::Scope s(&spans, "unpinned");
    unpinned_rate = rate(timed_episodes(w, a.seed, a.seconds / 4,
                                        kMinTracedRunEpisodes, gate, nullptr,
                                        episode, [](double) {})
                             .results);
  }
  pin_to_one_cpu();

  std::uint64_t ok = 0;
  const EpisodeResult* ref = nullptr;
  for (const EpisodeResult& r : eps) {
    if (r.ok) {
      ++ok;
      if (ref == nullptr) ref = &r;
    }
  }
  const Counts& c = p.reference;
  const double m = static_cast<double>(c.msgs);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  double switch_ns, event_ns, ring_ns;
  {
    Spans::Scope s(&spans, "probe.sim.process");
    switch_ns = process_ns_per_switch(w.ranks);
  }
  {
    Spans::Scope s(&spans, "probe.sim.engine");
    event_ns = engine_ns_per_event(c.peak_pending, a.seed);
  }
  {
    Spans::Scope s(&spans, "probe.ib.ring");
    ring_ns = ib_ring_ns_per_msg(w.msg_bytes, w.window);
  }

  std::vector<Metric> ms;
  ms.push_back({"sim.process.ns_per_switch", switch_ns, "ns", "(probe)"});
  ms.push_back({"sim.process.sys_cpu_share", p.sys_cpu_share, "share",
                "(sys / (user + sys), untraced episodes)"});
  ms.push_back({"sim.process.unpinned_msgs_per_host_s", unpinned_rate, "msg/s",
                "(untraced, at the starting CPU placement)"});
  ms.push_back({"sim.engine.events_per_msg", ratio(d(c.events_executed), m),
                "event/msg", ""});
  ms.push_back({"sim.engine.cancelled_share",
                ratio(d(c.events_cancelled), d(c.events_scheduled)), "share", ""});
  ms.push_back({"sim.engine.peak_pending", d(c.peak_pending), "count", ""});
  ms.push_back({"sim.engine.ns_per_event", event_ns, "ns", "(probe)"});
  ms.push_back({"ib.packets_per_msg", ratio(d(c.packets), m), "pkt/msg", ""});
  ms.push_back({"ib.wire_bytes_per_msg", ratio(d(c.wire_bytes), m), "B/msg", ""});
  ms.push_back({"ib.rnr_naks", d(c.rnr_naks), "count", "(per episode)"});
  ms.push_back({"ib.retransmits", d(c.retransmits), "count", "(per episode)"});
  ms.push_back({"ib.ring_ns_per_msg", ring_ns, "ns", "(probe)"});
  ms.push_back({"flowctl.ecm_share", ratio(d(c.ecm_sent), d(c.mpi_messages)),
                "share", "(ECMs / all MPI messages)"});
  ms.push_back({"flowctl.backlog_share", ratio(d(c.backlog_entered), m), "share", ""});
  ms.push_back({"flowctl.max_posted", d(c.max_posted), "count", ""});
  ms.push_back({"flowctl.growth_events", d(c.growth_events), "count", "(per episode)"});
  ms.push_back({"flowctl.rndv_conversions", d(c.rndv_conversions), "count",
                "(per episode)"});
  ms.push_back({"mpi.reg_cache_hit_rate",
                ratio(d(c.reg_cache_hits), d(c.reg_cache_hits + c.reg_cache_misses)),
                "share", ""});
  ms.push_back({"mpi.rndv_share", ratio(d(c.rndv_started), m), "share", ""});
  ms.push_back({"mpi.connections", d(c.connections), "count", ""});
  ms.push_back({"mpi.world_ctor_ms", median(spans.durations_ms("mpi.world_ctor")),
                "ms", "(median span, traced)"});
  ms.push_back({"mpi.run_ms", median(spans.durations_ms("mpi.run")), "ms",
                "(median span, traced)"});
  ms.push_back({"mpi.collect_stats_ms",
                median(spans.durations_ms("mpi.collect_stats")), "ms",
                "(median span, traced)"});
  ms.push_back({"nas.verified_share", ratio(d(ok), d(eps.size())), "share",
                "(traced episodes that passed the gate)"});
  ms.push_back({"obs.trace_overhead", ratio(rate(eps), p.msgs_per_host_s()) - 1,
                "ratio", "(traced / untraced msgs_per_host_s - 1)"});
  ms.push_back({"obs.snapshot_ms", median(spans.durations_ms("obs.snapshot")),
                "ms", "(median span, traced)"});
  ms.push_back({"obs.prof_analyze_ms",
                median(spans.durations_ms("obs.prof_analyze")), "ms",
                "(median span, traced)"});
  const ObsSample none;
  const ObsSample& o = ref != nullptr ? ref->obs : none;
  ms.push_back({"obs.recorder_events_per_msg", ratio(d(o.recorder_events), m),
                "event/msg", ""});
  for (std::size_t i = 0; i < mvflow::obs::kSegmentCount; ++i) {
    const std::string seg(
        mvflow::obs::to_string(static_cast<mvflow::obs::Segment>(i)));
    ms.push_back({"obs.prof." + seg + "_share",
                  ratio(d(static_cast<std::uint64_t>(o.payload.seg[i])),
                        d(static_cast<std::uint64_t>(o.payload.e2e_ns))),
                  "share", "(of credited messages' e2e latency)"});
  }

  if (!a.artefact.empty()) {
    std::string counts = "{";
    c.visit([&counts](const char* k, std::uint64_t v) {
      counts += (counts.size() > 1 ? ", \"" : "\"") + std::string(k) +
                "\": " + std::to_string(v);
    });
    counts += "}";
    char digest[32];
    std::snprintf(digest, sizeof digest, "\"%016" PRIx64 "\"", c.digest());
    const std::string other =
        "{\"provenance\": " + provenance_json(w, a, p.scheduler, cpu) +
        ", \"digest\": " + digest + ", \"counts\": " + counts +
        ", \"untraced_msgs_per_host_s\": " +
        std::to_string(p.msgs_per_host_s()) +
        ", \"per_layer\": " + metrics_json(ms) + "}";
    if (!spans.write(a.artefact, other))
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.artefact.c_str());
    else
      std::printf("artefact %s\n", a.artefact.c_str());
  }
  return ms;
}

int run(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) usage(("unknown workload " + a.workload).c_str());

  Gate gate;
  gate.reference = a.expect_digest;
  const int cpu = pin_to_one_cpu();
  const Pass p = a.trace ? measure(*w, a.seed, a.seconds / 2,
                                   kMinTracedRunEpisodes, gate)
                         : measure(*w, a.seed, a.seconds, kMinTimedEpisodes, gate);
  const std::vector<Metric> ms =
      a.trace ? per_layer(*w, a, p, gate, cpu) : end_to_end(p, gate);
  std::printf("provenance %s\n", provenance_json(*w, a, p.scheduler, cpu).c_str());
  std::printf("digest %016" PRIx64 "\n", p.reference.digest());
  print_metrics(ms);
  if (!gate.first_error.empty())
    std::printf("first failure: %s\n", gate.first_error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              gate.failed == 0 ? "true" : "false", gate.attempted, gate.failed,
              metrics_json(ms).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::refuse_mvflow_env();
  return perfbench::run(perfbench::parse(argc, argv));
}
