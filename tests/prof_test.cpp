// Causal critical-path profiler tests (DESIGN.md §16): exactness of the
// six-way latency split, the exact latency.* series derived from the same
// records (counts against protocol counters, quantiles against a
// brute-force nearest rank), serial-vs-sharded bit-identity of the profile
// document, the zero-record disarmed contract, the deterministic chain-id
// join key, and the export surfaces (profile JSON, flow arrows, "prof." and
// "latency." metrics).
//
// Also home to the shard-merge identity tests: the latency.* metrics and
// the merged event ring from a sharded run must match a serial run of the
// same workload exactly, for both paper workload shapes (Figure 2
// ping-pong, Figure 3 blocking bandwidth).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exp/run_config.hpp"
#include "mpi/communicator.hpp"
#include "mpi/protocol.hpp"
#include "mpi/world.hpp"
#include "obs/prof.hpp"
#include "obs/recorder.hpp"

using namespace mvflow;

namespace {

constexpr std::size_t kMsgBytes = 4;
constexpr int kFloodCount = 40;

mpi::WorldConfig prof_config(int ranks, int prepost, int engine_threads = 0) {
  mpi::WorldConfig cfg;
  cfg.num_ranks = ranks;
  cfg.flow.scheme = flowctl::Scheme::user_static;
  cfg.flow.prepost = prepost;
  cfg.engine_threads = engine_threads;
  cfg.run = exp::RunConfig{};  // tests must ignore ambient MVFLOW_* exports
  cfg.profile = true;
  return cfg;
}

void enable_all_recorders(mpi::World& world) {
  world.recorder().enable(obs::FlightRecorder::kDefaultCapacity);
  if (world.is_sharded()) {
    for (int s = 0; s < world.num_ranks(); ++s) {
      world.shard_recorder(static_cast<std::size_t>(s))
          .enable(obs::FlightRecorder::kDefaultCapacity);
    }
  }
}

/// Credit-starved one-way flood: with a tiny prepost every send after the
/// first few waits on an ECM round-trip, so all six segment kinds except
/// retransmit show up in the profile.
void starved_flood(mpi::Communicator& comm) {
  std::vector<std::byte> buf(kMsgBytes);
  if (comm.rank() == 0) {
    for (int i = 0; i < kFloodCount; ++i) {
      comm.send(std::span<const std::byte>(buf.data(), kMsgBytes), 1, 0);
    }
  } else if (comm.rank() == 1) {
    for (int i = 0; i < kFloodCount; ++i) {
      comm.recv(std::span<std::byte>(buf.data(), kMsgBytes), 0, 0);
    }
  }
}

obs::ProfileAnalysis starved_analysis(int engine_threads,
                                      std::unique_ptr<mpi::World>* out_world =
                                          nullptr) {
  auto world = std::make_unique<mpi::World>(prof_config(2, 2, engine_threads));
  world->run(starved_flood);
  obs::ProfileAnalysis a = world->prof_analysis();
  if (out_world != nullptr) *out_world = std::move(world);
  return a;
}

/// The deterministic join/causal key: (src, dst, per-connection sequence),
/// the same packing mpi::Device uses for the engine's causal token and the
/// flow-arrow ids.
std::uint64_t chain_id(std::int16_t src, std::int16_t dst,
                       std::uint64_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(src)) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(dst)) << 32) |
         (seq & 0xffffffffull);
}

}  // namespace

// ------------------------------------------------------------ attribution --

TEST(ProfAttribution, SegmentsSumExactlyToE2e) {
  std::unique_ptr<mpi::World> world;
  obs::ProfileAnalysis a = starved_analysis(0, &world);
  ASSERT_NE(world, nullptr);
  EXPECT_TRUE(a.exact);
  ASSERT_GT(a.messages.size(), 0u);
  for (const obs::MessageProfile& m : a.messages) {
    EXPECT_EQ(m.attributed(), m.e2e())
        << "message r" << m.src << "->r" << m.dst << " seq " << m.seq;
  }
  // Σ over the run telescopes the same way.
  EXPECT_EQ(a.payload.attributed(), a.payload.e2e_ns);
  EXPECT_EQ(a.control.attributed(), a.control.e2e_ns);
  // A prepost=2 flood is credit famine by construction: the profile must
  // show credit-stall / ECM round-trip time, not just wire time.
  EXPECT_GT(a.payload.seg[static_cast<int>(obs::Segment::credit_stall)] +
                a.payload.seg[static_cast<int>(obs::Segment::ecm_rtt)],
            0);
}

TEST(ProfAttribution, CriticalPathAndConnectionsPopulated) {
  obs::ProfileAnalysis a = starved_analysis(0);
  ASSERT_FALSE(a.critical_path.empty());
  for (const obs::CriticalStep& s : a.critical_path) {
    EXPECT_GE(s.ns, 0);
    EXPECT_NE(s.seq, obs::kProfNoSeq);
  }
  // Per-connection blame partitions the payload total exactly, and the
  // flood direction (r0 -> r1) must dominate it. (The teardown handshake
  // contributes a couple of messages on other directions.)
  std::int64_t blamed = 0;
  std::int64_t forward = 0;
  for (const obs::ConnectionBlame& c : a.connections) {
    blamed += c.totals.e2e_ns;
    if (c.src == 0 && c.dst == 1) forward = c.totals.e2e_ns;
  }
  EXPECT_EQ(blamed, a.payload.e2e_ns);
  EXPECT_GT(forward, a.payload.e2e_ns / 2);
}

TEST(ProfAttribution, ProfileBitIdenticalAcrossEngines) {
  const std::string serial =
      obs::profile_to_json(starved_analysis(0), "starved");
  for (int threads : {1, 2, 4}) {
    const std::string sharded =
        obs::profile_to_json(starved_analysis(threads), "starved");
    EXPECT_EQ(sharded, serial) << "engine_threads=" << threads;
  }
}

TEST(ProfAttribution, DisarmedProfilerRecordsNothing) {
  mpi::WorldConfig cfg = prof_config(2, 2);
  cfg.profile = false;
  mpi::World world(cfg);
  world.run(starved_flood);
  EXPECT_FALSE(world.profiler().enabled());
  EXPECT_TRUE(world.merged_prof().records().empty());
  EXPECT_TRUE(world.prof_analysis().messages.empty());
}

TEST(ProfAttribution, DevRecvCarriesDeterministicChainId) {
  mpi::World world(prof_config(2, 2));
  world.run(starved_flood);
  const obs::Profiler merged = world.merged_prof();
  std::size_t checked = 0;
  for (const obs::ProfRecord& r : merged.records()) {
    if (r.family != obs::ProfFamily::dev_recv) continue;
    if (r.msg_kind != static_cast<std::uint8_t>(mpi::MsgKind::eager_data))
      continue;
    ASSERT_NE(r.seq, obs::kProfNoSeq);
    // The receive-side record's aux is the engine causal token at arrival,
    // which the sender stamped as its own chain id at post_send.
    EXPECT_EQ(r.aux, chain_id(r.src, r.dst, r.seq));
    ++checked;
  }
  // At least the whole flood (the teardown handshake may add a couple).
  EXPECT_GE(checked, static_cast<std::size_t>(kFloodCount));
}

// ---------------------------------------------------------------- latency --

namespace {

/// Four blocking 1 MiB sends: every message takes the rendezvous path
/// (RTS/CTS, RDMA write, FIN), so the QP series see long wire→ACK times.
void rendezvous_stream(mpi::Communicator& comm) {
  constexpr std::size_t kBytes = 1u << 20;
  std::vector<std::byte> buf(kBytes);
  for (int i = 0; i < 4; ++i) {
    if (comm.rank() == 0) {
      comm.send(std::span<const std::byte>(buf.data(), kBytes), 1, 0);
    } else if (comm.rank() == 1) {
      comm.recv(std::span<std::byte>(buf.data(), kBytes), 0, 0);
    }
  }
}

/// Brute-force nearest rank: the smallest sample with at least `pct`
/// percent of the series at or below it.
std::int64_t brute_nearest_rank(std::vector<std::int64_t> v, std::size_t pct) {
  std::sort(v.begin(), v.end());
  for (std::size_t k = 1; k <= v.size(); ++k) {
    if (100 * k >= pct * v.size()) return v[k - 1];
  }
  return 0;
}

void expect_series(const obs::Snapshot& snap, const std::string& series,
                   const std::vector<std::int64_t>& samples) {
  const std::string base = "latency." + series;
  ASSERT_FALSE(samples.empty()) << series;
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  std::int64_t sum = 0;
  for (std::int64_t v : samples) sum += v;
  EXPECT_EQ(snap.get(base + ".count"), static_cast<double>(samples.size()));
  EXPECT_EQ(snap.get(base + ".mean_ns"),
            static_cast<double>(sum) / static_cast<double>(samples.size()));
  EXPECT_EQ(snap.get(base + ".min_ns"), static_cast<double>(*lo)) << series;
  EXPECT_EQ(snap.get(base + ".max_ns"), static_cast<double>(*hi)) << series;
  for (std::size_t pct : {50u, 90u, 99u}) {
    const std::string name = base + ".p" + std::to_string(pct) + "_ns";
    EXPECT_EQ(snap.get(name),
              static_cast<double>(brute_nearest_rank(samples, pct)))
        << name;
  }
  EXPECT_LE(snap.get(base + ".p99_ns"), snap.get(base + ".max_ns")) << series;
}

/// latency.* must be exact: counts equal the protocol counters (one
/// post→wire and one wire→ACK sample per QP message, one residency sample
/// per backlog dispatch), and every statistic equals a recomputation from
/// the raw records.
void expect_latency_exact(mpi::World& world) {
  const obs::Snapshot snap = world.metrics().snapshot();
  const mpi::WorldStats stats = world.collect_stats();
  std::uint64_t qp_messages = 0;
  for (const mpi::ConnectionReport& c : stats.connections) {
    qp_messages += c.qp.messages_sent;
  }
  ASSERT_GT(qp_messages, 0u);
  EXPECT_EQ(snap.get("latency.post_to_wire.count"),
            static_cast<double>(qp_messages));
  EXPECT_EQ(snap.get("latency.wire_to_ack.count"),
            static_cast<double>(qp_messages));
  EXPECT_EQ(snap.get("latency.backlog_residency.count"),
            static_cast<double>(stats.flow_totals.backlog_dispatched));

  std::vector<std::int64_t> post_to_wire;
  std::vector<std::int64_t> wire_to_ack;
  std::vector<std::int64_t> backlog;
  const obs::Profiler merged = world.merged_prof();
  for (const obs::ProfRecord& r : merged.records()) {
    if (r.family == obs::ProfFamily::qp_send) {
      post_to_wire.push_back(r.t1.count() - r.t0.count());
      wire_to_ack.push_back(r.t3.count() - r.t1.count());
    } else if (r.family == obs::ProfFamily::dev_send &&
               (r.flags & obs::kProfBacklogged) != 0) {
      backlog.push_back(r.t2.count() - r.t0.count());
    }
  }
  expect_series(snap, "post_to_wire", post_to_wire);
  expect_series(snap, "wire_to_ack", wire_to_ack);
  if (stats.flow_totals.backlog_dispatched > 0) {
    expect_series(snap, "backlog_residency", backlog);
  } else {
    EXPECT_TRUE(backlog.empty());
    EXPECT_EQ(snap.get("latency.backlog_residency.max_ns", -1.0), 0.0);
  }
}

}  // namespace

TEST(ProfLatency, StarvedFloodExact) {
  mpi::World world(prof_config(2, 2));
  world.run(starved_flood);
  ASSERT_GT(world.collect_stats().flow_totals.backlog_dispatched, 0u)
      << "the flood must exercise the backlog series";
  expect_latency_exact(world);
}

TEST(ProfLatency, RendezvousExact) {
  mpi::WorldConfig cfg = prof_config(2, 100);
  cfg.flow.scheme = flowctl::Scheme::user_dynamic;
  mpi::World world(cfg);
  world.run(rendezvous_stream);
  ASSERT_EQ(world.device(0).stats().rndv_started, 4u);
  expect_latency_exact(world);
}

// ----------------------------------------------------------------- exports --

TEST(ProfExport, ProfileDocumentRoundTrips) {
  obs::ProfileAnalysis a = starved_analysis(0);
  const std::string path = "prof_test_export.json";
  ASSERT_TRUE(obs::write_profile(path, a, "unit"));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("mvflow.prof.v1"), std::string::npos);
  EXPECT_NE(doc.find("\"label\""), std::string::npos);
  EXPECT_NE(doc.find("credit_stall"), std::string::npos);
  EXPECT_NE(doc.find("critical_path"), std::string::npos);
  EXPECT_EQ(doc, obs::profile_to_json(a, "unit"));
  std::remove(path.c_str());
  // "-" means stdout and must always succeed (no file to fail to open).
  EXPECT_TRUE(obs::write_profile("-", a, "unit"));
}

TEST(ProfExport, FlowArrowsPairUpAcrossRanks) {
  obs::ProfileAnalysis a = starved_analysis(0);
  const std::vector<obs::FlowArrowEvent> flows = obs::flow_events(a);
  ASSERT_FALSE(flows.empty());
  for (std::size_t i = 1; i < flows.size(); ++i) {
    EXPECT_LE(flows[i - 1].t, flows[i].t) << "arrows must be time-sorted";
  }
  // Every id appears exactly twice: one "s" endpoint on the sender's track
  // and one "f" endpoint on the receiver's, begin no later than finish.
  std::map<std::uint64_t, std::vector<obs::FlowArrowEvent>> by_id;
  for (const obs::FlowArrowEvent& f : flows) by_id[f.id].push_back(f);
  for (const auto& [id, pair] : by_id) {
    ASSERT_EQ(pair.size(), 2u) << "id " << id;
    const obs::FlowArrowEvent& s = pair[0].begin ? pair[0] : pair[1];
    const obs::FlowArrowEvent& f = pair[0].begin ? pair[1] : pair[0];
    EXPECT_TRUE(s.begin);
    EXPECT_FALSE(f.begin);
    EXPECT_LE(s.t, f.t);
    EXPECT_NE(s.rank, f.rank);
  }
  EXPECT_EQ(by_id.size(), a.messages.size());
}

TEST(ProfExport, MetricsRegistryExposesBlameAndQuantiles) {
  std::unique_ptr<mpi::World> world;
  (void)starved_analysis(0, &world);
  ASSERT_NE(world, nullptr);
  const obs::Snapshot snap = world->metrics().snapshot();
  EXPECT_EQ(snap.get("prof.exact", -1.0), 1.0);
  EXPECT_GT(snap.get("prof.messages"), 0.0);
  EXPECT_GT(snap.get("prof.e2e_ns"), 0.0);
  EXPECT_TRUE(snap.has("prof.credit_stall_ns"));
  EXPECT_TRUE(snap.has("prof.conn.r0_r1.e2e_ns"));
  EXPECT_TRUE(snap.has("prof.link.up.r0.e2e_ns"));
  EXPECT_TRUE(snap.has("prof.link.down.r1.e2e_ns"));
  // The latency series come from the same source: p50/p90/p99 present.
  EXPECT_GT(snap.count_suffix(".p50_ns"), 0u);
  EXPECT_GT(snap.count_suffix(".p90_ns"), 0u);
  EXPECT_GT(snap.count_suffix(".p99_ns"), 0u);
}

TEST(ProfExport, CsvEscapeQuotesSeparatorsAndQuotes) {
  EXPECT_EQ(obs::csv_escape("plain"), "plain");
  EXPECT_EQ(obs::csv_escape(""), "");
  EXPECT_EQ(obs::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(obs::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(obs::csv_escape("line\nbreak"), "\"line\nbreak\"");
}

// ------------------------------------------------------------ shard merge --

namespace {

using EventKey = std::tuple<std::int64_t, int, std::int16_t, std::int16_t,
                            std::uint32_t, std::uint64_t, std::int64_t>;

std::vector<EventKey> canonical_events(const mpi::World& world) {
  const std::vector<obs::TraceEvent> evs = world.merged_trace().events();
  std::vector<EventKey> keys;
  keys.reserve(evs.size());
  for (const obs::TraceEvent& e : evs) {
    keys.emplace_back(e.t.count(), static_cast<int>(e.kind), e.rank, e.peer,
                      e.qpn, e.a, e.b);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::pair<std::string, double>> latency_values(
    mpi::World& world) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, v] : world.metrics().snapshot().values) {
    if (name.starts_with("latency.")) out.emplace_back(name, v);
  }
  return out;
}

/// Run `workload` serially and sharded at 1, 2 and 4 workers, profiler and
/// recorders armed, and require the latency.* metrics (means included:
/// they divide integer sums) and the canonically sorted event multisets to
/// match exactly (satellite of DESIGN.md §16: shard-merged observability
/// equals serial observability).
template <typename Fn>
void expect_shard_merge_identical(int ranks, int prepost, Fn&& workload) {
  std::vector<EventKey> serial_events;
  std::vector<std::pair<std::string, double>> serial_latency;
  for (int threads : {0, 1, 2, 4}) {
    mpi::WorldConfig cfg = prof_config(ranks, prepost, threads);
    mpi::World world(cfg);
    enable_all_recorders(world);
    world.run(workload);
    if (threads == 0) {
      serial_events = canonical_events(world);
      serial_latency = latency_values(world);
      ASSERT_FALSE(serial_events.empty());
      ASSERT_EQ(serial_latency.size(), 21u);
      continue;
    }
    ASSERT_TRUE(world.is_sharded());
    EXPECT_EQ(canonical_events(world), serial_events)
        << "event multiset diverged at engine_threads=" << threads;
    EXPECT_EQ(latency_values(world), serial_latency)
        << "latency.* diverged at engine_threads=" << threads;
  }
}

}  // namespace

TEST(ShardMerge, Fig2PingPongObservabilityIdentical) {
  // Figure 2's shape: 1 KiB ping-pong, run on two independent pairs so the
  // 4-shard engine actually exercises cross-shard delivery both ways.
  expect_shard_merge_identical(4, 100, [](mpi::Communicator& comm) {
    std::vector<std::byte> buf(1024);
    const int partner = comm.rank() ^ 1;
    for (int i = 0; i < 30; ++i) {
      if ((comm.rank() & 1) == 0) {
        comm.send(std::span<const std::byte>(buf.data(), buf.size()), partner,
                  0);
        comm.recv(std::span<std::byte>(buf.data(), buf.size()), partner, 0);
      } else {
        comm.recv(std::span<std::byte>(buf.data(), buf.size()), partner, 0);
        comm.send(std::span<const std::byte>(buf.data(), buf.size()), partner,
                  0);
      }
    }
  });
}

TEST(ShardMerge, Fig3BlockingBwObservabilityIdentical) {
  // Figure 3's shape: credit-limited one-way blocking streams, which drive
  // the backlog and ECM event kinds through the merge path as well.
  expect_shard_merge_identical(4, 8, [](mpi::Communicator& comm) {
    std::vector<std::byte> buf(kMsgBytes);
    const int partner = comm.rank() ^ 1;
    if ((comm.rank() & 1) == 0) {
      for (int i = 0; i < kFloodCount; ++i) {
        comm.send(std::span<const std::byte>(buf.data(), kMsgBytes), partner,
                  0);
      }
    } else {
      for (int i = 0; i < kFloodCount; ++i) {
        comm.recv(std::span<std::byte>(buf.data(), kMsgBytes), partner, 0);
      }
    }
  });
}
