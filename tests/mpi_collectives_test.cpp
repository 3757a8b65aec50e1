// Collectives correctness across rank counts (including non powers of two)
// and flow-control schemes.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "mpi/communicator.hpp"
#include "mpi/world.hpp"

using namespace mvflow;
using namespace mvflow::mpi;

namespace {

struct CollParam {
  int ranks;
  flowctl::Scheme scheme;
  // gtest prints every byte of a parameter into the listed test name, so
  // the padding is a named, zeroed member: unnamed padding would print
  // stack residue and rename tests from run to run.
  std::uint8_t pad[3] = {};
};
static_assert(sizeof(CollParam) == 8);

std::string param_name(const ::testing::TestParamInfo<CollParam>& info) {
  return std::to_string(info.param.ranks) + "ranks_" +
         std::string(flowctl::to_string(info.param.scheme));
}

class Collectives : public ::testing::TestWithParam<CollParam> {
 protected:
  WorldConfig make_config() const {
    WorldConfig cfg;
    cfg.num_ranks = GetParam().ranks;
    cfg.flow.scheme = GetParam().scheme;
    cfg.flow.prepost = 16;
    return cfg;
  }
};

}  // namespace

TEST_P(Collectives, BarrierSynchronizes) {
  World world(make_config());
  const int p = world.num_ranks();
  std::vector<std::int64_t> after_barrier_ns(p);
  std::vector<std::int64_t> work_ns(p);
  world.run([&](Communicator& comm) {
    // Stagger ranks; the barrier must not release anyone before the
    // slowest arrives.
    work_ns[comm.rank()] = 1000 * (comm.rank() + 1);
    comm.compute(sim::Duration(work_ns[comm.rank()]));
    comm.barrier();
    after_barrier_ns[comm.rank()] = comm.now().count();
  });
  const std::int64_t slowest = *std::max_element(work_ns.begin(), work_ns.end());
  for (int r = 0; r < p; ++r) {
    EXPECT_GE(after_barrier_ns[r], slowest) << "rank " << r << " left early";
  }
}

TEST_P(Collectives, BcastFromEveryRoot) {
  World world(make_config());
  const int p = world.num_ranks();
  world.run([&](Communicator& comm) {
    for (Rank root = 0; root < p; ++root) {
      std::vector<double> data(17, comm.rank() == root ? root * 3.5 : -1.0);
      comm.bcast_n(data.data(), data.size(), root);
      for (double v : data) EXPECT_DOUBLE_EQ(v, root * 3.5);
    }
  });
}

TEST_P(Collectives, BcastLargePayload) {
  World world(make_config());
  world.run([&](Communicator& comm) {
    std::vector<std::int64_t> data(20000);  // 160 KB -> rendezvous
    if (comm.rank() == 0) std::iota(data.begin(), data.end(), 7);
    comm.bcast_n(data.data(), data.size(), 0);
    for (std::size_t i = 0; i < data.size(); ++i)
      ASSERT_EQ(data[i], static_cast<std::int64_t>(i) + 7);
  });
}

TEST_P(Collectives, AllreduceSumMatchesSerial) {
  World world(make_config());
  const int p = world.num_ranks();
  world.run([&](Communicator& comm) {
    std::vector<double> v(9);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = comm.rank() * 100.0 + static_cast<double>(i);
    comm.allreduce(std::span<double>(v), OpSum{});
    for (std::size_t i = 0; i < v.size(); ++i) {
      double expect = 0;
      for (int r = 0; r < p; ++r) expect += r * 100.0 + static_cast<double>(i);
      EXPECT_DOUBLE_EQ(v[i], expect);
    }
  });
}

TEST_P(Collectives, AllreduceMaxAndScalars) {
  World world(make_config());
  const int p = world.num_ranks();
  world.run([&](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())),
                     static_cast<double>(p - 1));
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(1.0), static_cast<double>(p));
    EXPECT_EQ(comm.allreduce_sum(static_cast<std::int64_t>(comm.rank())),
              static_cast<std::int64_t>(p) * (p - 1) / 2);
  });
}

TEST_P(Collectives, ReduceToNonzeroRoot) {
  World world(make_config());
  const int p = world.num_ranks();
  const Rank root = p - 1;
  world.run([&](Communicator& comm) {
    std::vector<std::int64_t> v{comm.rank() + 1};
    comm.reduce_inplace(std::span<std::int64_t>(v), OpSum{}, root);
    if (comm.rank() == root) {
      EXPECT_EQ(v[0], static_cast<std::int64_t>(p) * (p + 1) / 2);
    }
  });
}

TEST_P(Collectives, AllgatherDistributesAllBlocks) {
  World world(make_config());
  const int p = world.num_ranks();
  world.run([&](Communicator& comm) {
    std::vector<std::int64_t> mine{comm.rank() * 10, comm.rank() * 10 + 1};
    std::vector<std::int64_t> all(static_cast<std::size_t>(2 * p), -1);
    comm.allgather(std::as_bytes(std::span<const std::int64_t>(mine)),
                   std::as_writable_bytes(std::span<std::int64_t>(all)));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[2 * r], r * 10);
      EXPECT_EQ(all[2 * r + 1], r * 10 + 1);
    }
  });
}

TEST_P(Collectives, AlltoallPermutesBlocks) {
  World world(make_config());
  const int p = world.num_ranks();
  world.run([&](Communicator& comm) {
    std::vector<std::int64_t> send(static_cast<std::size_t>(p));
    std::vector<std::int64_t> recv(static_cast<std::size_t>(p), -1);
    for (int r = 0; r < p; ++r) send[r] = comm.rank() * 1000 + r;
    comm.alltoall(std::as_bytes(std::span<const std::int64_t>(send)),
                  std::as_writable_bytes(std::span<std::int64_t>(recv)),
                  sizeof(std::int64_t));
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(recv[r], r * 1000 + comm.rank()) << "block from rank " << r;
  });
}

TEST_P(Collectives, AlltoallvVariableSizes) {
  World world(make_config());
  const int p = world.num_ranks();
  world.run([&](Communicator& comm) {
    const auto np = static_cast<std::size_t>(p);
    // Rank r sends (r + d + 1) int64s to rank d.
    std::vector<std::size_t> scounts(np), sdispls(np), rcounts(np), rdispls(np);
    std::size_t stotal = 0, rtotal = 0;
    for (int d = 0; d < p; ++d) {
      scounts[d] = sizeof(std::int64_t) * static_cast<std::size_t>(comm.rank() + d + 1);
      sdispls[d] = stotal;
      stotal += scounts[d];
      rcounts[d] = sizeof(std::int64_t) * static_cast<std::size_t>(d + comm.rank() + 1);
      rdispls[d] = rtotal;
      rtotal += rcounts[d];
    }
    std::vector<std::int64_t> send(stotal / sizeof(std::int64_t));
    std::vector<std::int64_t> recv(rtotal / sizeof(std::int64_t), -1);
    for (int d = 0; d < p; ++d) {
      auto* block = send.data() + sdispls[d] / sizeof(std::int64_t);
      const auto n = scounts[d] / sizeof(std::int64_t);
      for (std::size_t i = 0; i < n; ++i)
        block[i] = comm.rank() * 1000000 + d * 1000 + static_cast<std::int64_t>(i);
    }
    comm.alltoallv(reinterpret_cast<const std::byte*>(send.data()), scounts,
                   sdispls, reinterpret_cast<std::byte*>(recv.data()), rcounts,
                   rdispls);
    for (int s = 0; s < p; ++s) {
      auto* block = recv.data() + rdispls[s] / sizeof(std::int64_t);
      const auto n = rcounts[s] / sizeof(std::int64_t);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(block[i],
                  s * 1000000 + comm.rank() * 1000 + static_cast<std::int64_t>(i));
    }
  });
}

TEST_P(Collectives, GatherAndScatterRoundTrip) {
  World world(make_config());
  const int p = world.num_ranks();
  world.run([&](Communicator& comm) {
    const auto np = static_cast<std::size_t>(p);
    std::vector<double> mine{comm.rank() + 0.25};
    std::vector<double> all(np, -1);
    comm.gather(std::as_bytes(std::span<const double>(mine)),
                std::as_writable_bytes(std::span<double>(all)), 0);
    if (comm.rank() == 0) {
      for (int r = 0; r < p; ++r) EXPECT_DOUBLE_EQ(all[r], r + 0.25);
      for (int r = 0; r < p; ++r) all[r] = r * 2.0;
    }
    std::vector<double> back(1, -1);
    comm.scatter(std::as_bytes(std::span<const double>(all)),
                 std::as_writable_bytes(std::span<double>(back)), 0);
    EXPECT_DOUBLE_EQ(back[0], comm.rank() * 2.0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, Collectives,
    ::testing::Values(CollParam{1, flowctl::Scheme::user_static},
                      CollParam{2, flowctl::Scheme::user_static},
                      CollParam{5, flowctl::Scheme::user_static},
                      CollParam{8, flowctl::Scheme::user_static},
                      CollParam{8, flowctl::Scheme::hardware},
                      CollParam{8, flowctl::Scheme::user_dynamic},
                      CollParam{7, flowctl::Scheme::user_dynamic},
                      CollParam{16, flowctl::Scheme::user_static}),
    param_name);
