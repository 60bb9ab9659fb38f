// Tests for point-to-point messaging and the two flat ends of the
// hierarchical allreduce: one group of P ranks is a ring allreduce,
// groups of one rank are recursive doubling over every rank.

#include <gtest/gtest.h>

#include <numeric>

#include "simcluster/cluster.hpp"
#include "simcluster/comm.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::ReduceOp;

TEST(PointToPoint, SimpleExchange) {
  Cluster::run(2, [&](Comm& comm) {
    std::vector<double> mine{static_cast<double>(comm.rank()) + 1.0, 2.0};
    std::vector<double> theirs(2, -1.0);
    comm.sendrecv(1 - comm.rank(), mine, 1 - comm.rank(), theirs);
    EXPECT_DOUBLE_EQ(theirs[0], static_cast<double>(1 - comm.rank()) + 1.0);
    EXPECT_DOUBLE_EQ(theirs[1], 2.0);
  });
}

TEST(PointToPoint, TagsKeepMessagesApart) {
  Cluster::run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> a{1.0};
      const std::vector<double> b{2.0};
      comm.send(1, a, /*tag=*/7);
      comm.send(1, b, /*tag=*/8);
    } else {
      std::vector<double> out(1);
      // Receive in the opposite order of sending: tags must select.
      comm.recv(0, out, /*tag=*/8);
      EXPECT_DOUBLE_EQ(out[0], 2.0);
      comm.recv(0, out, /*tag=*/7);
      EXPECT_DOUBLE_EQ(out[0], 1.0);
    }
  });
}

TEST(PointToPoint, FifoPerTag) {
  Cluster::run(2, [&](Comm& comm) {
    constexpr int kMessages = 32;
    if (comm.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        const std::vector<double> v{static_cast<double>(i)};
        comm.send(1, v, /*tag=*/3);
      }
    } else {
      std::vector<double> out(1);
      for (int i = 0; i < kMessages; ++i) {
        comm.recv(0, out, /*tag=*/3);
        EXPECT_DOUBLE_EQ(out[0], static_cast<double>(i));
      }
    }
  });
}

TEST(PointToPoint, RingPattern) {
  // Every rank passes a token around the full ring.
  const int p = 5;
  Cluster::run(p, [&](Comm& comm) {
    std::vector<double> token{static_cast<double>(comm.rank())};
    for (int step = 0; step < p; ++step) {
      std::vector<double> incoming(1);
      comm.sendrecv((comm.rank() + 1) % p, token,
                    (comm.rank() - 1 + p) % p, incoming, step);
      token = incoming;
    }
    // After p hops the token returns home.
    EXPECT_DOUBLE_EQ(token[0], static_cast<double>(comm.rank()));
  });
}

TEST(PointToPoint, SizeMismatchThrows) {
  Cluster::run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> v{1.0, 2.0, 3.0};
      comm.send(1, v);
    } else {
      std::vector<double> out(2);  // wrong size
      bool threw = false;
      try {
        comm.recv(0, out);
      } catch (const uoi::support::DimensionMismatch&) {
        threw = true;
      }
      EXPECT_TRUE(threw);
    }
  });
}

TEST(PointToPoint, StatsTracked) {
  auto stats = Cluster::run_collect_stats(2, [&](Comm& comm) {
    std::vector<double> v(4, 1.0);
    comm.sendrecv(1 - comm.rank(), v, 1 - comm.rank(), v);
  });
  for (const auto& s : stats) {
    EXPECT_EQ(s.of(uoi::sim::CommCategory::kPointToPoint).calls, 2u);
    EXPECT_EQ(s.of(uoi::sim::CommCategory::kPointToPoint).bytes,
              2u * 4u * sizeof(double));
  }
}

class RingAllreduceParam
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(RingAllreduceParam, MatchesStagedAllreduce) {
  const auto [ranks, length] = GetParam();
  Cluster::run(ranks, [&](Comm& comm) {
    uoi::support::Xoshiro256 rng(static_cast<std::uint64_t>(comm.rank()) + 7);
    std::vector<double> staged(length), ring(length);
    for (std::size_t i = 0; i < length; ++i) {
      staged[i] = rng.normal();
      ring[i] = staged[i];
    }
    comm.allreduce(staged, ReduceOp::kSum);
    comm.allreduce_hierarchical(ring, ReduceOp::kSum, comm.size());
    for (std::size_t i = 0; i < length; ++i) {
      EXPECT_NEAR(ring[i], staged[i], 1e-11 * (std::abs(staged[i]) + 1.0));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RingAllreduceParam,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{64},
                                         std::size_t{1000})));

TEST(RingAllreduce, MinAndMaxOps) {
  Cluster::run(4, [&](Comm& comm) {
    std::vector<double> lo{static_cast<double>(comm.rank()), 5.0};
    comm.allreduce_hierarchical(lo, ReduceOp::kMin, comm.size());
    EXPECT_DOUBLE_EQ(lo[0], 0.0);
    EXPECT_DOUBLE_EQ(lo[1], 5.0);
    std::vector<double> hi{static_cast<double>(comm.rank())};
    comm.allreduce_hierarchical(hi, ReduceOp::kMax, comm.size());
    EXPECT_DOUBLE_EQ(hi[0], 3.0);
  });
}

TEST(RingAllreduce, ShortVectorWithManyRanks) {
  // length < ranks: some chunks are empty; must still be correct.
  Cluster::run(8, [&](Comm& comm) {
    std::vector<double> v{1.0, 2.0};
    comm.allreduce_hierarchical(v, ReduceOp::kSum, comm.size());
    EXPECT_DOUBLE_EQ(v[0], 8.0);
    EXPECT_DOUBLE_EQ(v[1], 16.0);
  });
}

TEST(RingAllreduce, BackToBackCallsDoNotCrossTalk) {
  Cluster::run(4, [&](Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      std::vector<double> v(17, static_cast<double>(round + comm.rank()));
      comm.allreduce_hierarchical(v, ReduceOp::kSum, comm.size());
      const double expect = 4.0 * round + (0 + 1 + 2 + 3);
      for (const double x : v) EXPECT_DOUBLE_EQ(x, expect);
    }
  });
}

TEST(RingAllreduce, OneGroupSendsNoFanOut) {
  // The ring leaves the sum on every rank: each rank sends and receives
  // P-1 chunks in each of its two sweeps, and the leader sends nothing
  // more.
  for (const int p : {2, 3, 5, 8}) {
    const auto stats = Cluster::run_collect_stats(p, [&](Comm& comm) {
      std::vector<double> v(13, 1.0 + comm.rank());
      comm.allreduce_hierarchical(v, ReduceOp::kSum, comm.size());
    });
    for (const auto& s : stats) {
      EXPECT_EQ(s.of(uoi::sim::CommCategory::kPointToPoint).calls,
                4u * static_cast<std::uint64_t>(p - 1))
          << "P = " << p;
    }
  }
}

}  // namespace

namespace recursive_doubling_tests {

using uoi::sim::Cluster;
using uoi::sim::Comm;
using uoi::sim::ReduceOp;

class RecursiveDoublingParam
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(RecursiveDoublingParam, MatchesStagedAllreduce) {
  const auto [ranks, length] = GetParam();
  Cluster::run(ranks, [&](Comm& comm) {
    uoi::support::Xoshiro256 rng(static_cast<std::uint64_t>(comm.rank()) + 3);
    std::vector<double> staged(length), rd(length);
    for (std::size_t i = 0; i < length; ++i) {
      staged[i] = rng.normal();
      rd[i] = staged[i];
    }
    comm.allreduce(staged, ReduceOp::kSum);
    comm.allreduce_hierarchical(rd, ReduceOp::kSum, 1);
    for (std::size_t i = 0; i < length; ++i) {
      EXPECT_NEAR(rd[i], staged[i], 1e-11 * (std::abs(staged[i]) + 1.0));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RecursiveDoublingParam,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8),
                       ::testing::Values(std::size_t{1}, std::size_t{33},
                                         std::size_t{500})));

TEST(RecursiveDoubling, IdenticalResultOnEveryRank) {
  Cluster::run(6, [&](Comm& comm) {
    std::vector<double> v{static_cast<double>(comm.rank()) * 1.7, -2.0};
    comm.allreduce_hierarchical(v, ReduceOp::kMax, 1);
    EXPECT_DOUBLE_EQ(v[0], 5.0 * 1.7);
    EXPECT_DOUBLE_EQ(v[1], -2.0);
  });
}

TEST(RecursiveDoubling, BackToBackNoCrossTalk) {
  Cluster::run(5, [&](Comm& comm) {
    for (int round = 0; round < 8; ++round) {
      std::vector<double> v(11, 1.0 + round);
      comm.allreduce_hierarchical(v, ReduceOp::kSum, 1);
      for (const double x : v) EXPECT_DOUBLE_EQ(x, 5.0 * (1.0 + round));
    }
  });
}

}  // namespace recursive_doubling_tests

namespace allgatherv_tests {

using uoi::sim::Cluster;
using uoi::sim::Comm;

TEST(AllgatherVariable, ConcatenatesInRankOrder) {
  Cluster::run(4, [&](Comm& comm) {
    // Rank r contributes r elements (rank 0 contributes none).
    std::vector<double> mine(static_cast<std::size_t>(comm.rank()),
                             static_cast<double>(comm.rank()));
    std::vector<std::size_t> counts;
    const auto all = comm.allgather_variable(mine, &counts);
    ASSERT_EQ(counts, (std::vector<std::size_t>{0, 1, 2, 3}));
    ASSERT_EQ(all.size(), 6u);
    EXPECT_DOUBLE_EQ(all[0], 1.0);
    EXPECT_DOUBLE_EQ(all[1], 2.0);
    EXPECT_DOUBLE_EQ(all[2], 2.0);
    EXPECT_DOUBLE_EQ(all[5], 3.0);
  });
}

TEST(AllgatherVariable, WithoutCountsPointer) {
  Cluster::run(2, [&](Comm& comm) {
    const std::vector<double> mine{static_cast<double>(comm.rank()) + 0.5};
    const auto all = comm.allgather_variable(mine);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_DOUBLE_EQ(all[0], 0.5);
    EXPECT_DOUBLE_EQ(all[1], 1.5);
  });
}

}  // namespace allgatherv_tests
