// Unit tests for the virtual message-passing runtime: every collective is
// checked against a serially computed reference across a sweep of rank
// counts, including non-powers-of-two.
#include <gtest/gtest.h>

#include <numeric>

#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp::vmpi {
namespace {

class CommCollectives : public ::testing::TestWithParam<int> {};

TEST_P(CommCollectives, PointToPointRoundTrip) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  run(p, [](Comm& comm) {
    // Ring: send my rank to the next rank, receive from the previous.
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() - 1 + comm.size()) % comm.size();
    comm.send_value<int>(next, 7, comm.rank());
    const int got = comm.recv_value<int>(prev, 7);
    EXPECT_EQ(got, prev);
  });
}

TEST_P(CommCollectives, PointToPointPreservesOrderPerSourceAndTag) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  run(p, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 32; ++i) comm.send_value<int>(1, 3, i);
    } else if (comm.rank() == 1) {
      for (int i = 0; i < 32; ++i) EXPECT_EQ(comm.recv_value<int>(0, 3), i);
    }
  });
}

TEST_P(CommCollectives, BcastFromEveryRoot) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::int64_t> data;
      if (comm.rank() == root) data = {10 + root, 20 + root, 30 + root};
      data = testing::bcast_typed<std::int64_t>(comm, root,
                                                 std::move(data));
      ASSERT_EQ(data.size(), 3u);
      EXPECT_EQ(data[0], 10 + root);
      EXPECT_EQ(data[2], 30 + root);
    }
  });
}

TEST_P(CommCollectives, AllreduceSumMaxMin) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const std::int64_t r = comm.rank();
    EXPECT_EQ(comm.allreduce_sum<std::int64_t>(r),
              static_cast<std::int64_t>(p) * (p - 1) / 2);
    EXPECT_EQ(comm.allreduce_max<std::int64_t>(r), p - 1);
    EXPECT_EQ(comm.allreduce_min<std::int64_t>(r + 5), 5);
  });
}

TEST_P(CommCollectives, AllreduceVectorElementwise) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    std::vector<std::int64_t> mine = {comm.rank(), 2 * comm.rank()};
    auto out = comm.allreduce<std::int64_t>(
        std::move(mine), [](std::int64_t a, std::int64_t b) { return a + b; });
    const std::int64_t total = static_cast<std::int64_t>(p) * (p - 1) / 2;
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], total);
    EXPECT_EQ(out[1], 2 * total);
  });
}

TEST_P(CommCollectives, AllgatherEveryRankSeesAll) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    auto all = comm.allgather_value<int>(comm.rank() * 3);
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 3);
  });
}

TEST_P(CommCollectives, AllgatherVariableSizes) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    // Rank r contributes r bytes, each with value r.
    std::vector<std::byte> mine(static_cast<std::size_t>(comm.rank()),
                                static_cast<std::byte>(comm.rank()));
    auto all = comm.allgather_payload(Payload::wrap(std::move(mine)));
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r) {
      const Payload& piece = all[static_cast<std::size_t>(r)];
      EXPECT_EQ(piece.size(), static_cast<std::size_t>(r));
      for (std::size_t i = 0; i < piece.size(); ++i)
        EXPECT_EQ(piece.data()[i], static_cast<std::byte>(r));
    }
  });
}

TEST_P(CommCollectives, AllgatherVecConcatenatesInRankOrder) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    // Rank r contributes r+1 typed elements with values 100*r + i.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()) + 1);
    for (std::size_t i = 0; i < mine.size(); ++i)
      mine[i] = 100 * comm.rank() + static_cast<int>(i);
    const std::vector<int> all = comm.allgather_vec<int>(mine);
    ASSERT_EQ(all.size(),
              static_cast<std::size_t>(p) * static_cast<std::size_t>(p + 1) /
                  2);
    std::size_t pos = 0;
    for (int r = 0; r < p; ++r)
      for (int i = 0; i <= r; ++i) EXPECT_EQ(all[pos++], 100 * r + i);
  });
}

TEST_P(CommCollectives, AlltoallPersonalizedExchange) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    // buffers[d] = [rank, d] so the receiver can verify provenance.
    std::vector<Payload> buffers(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      std::vector<std::byte> msg = {static_cast<std::byte>(comm.rank()),
                                    static_cast<std::byte>(d)};
      buffers[static_cast<std::size_t>(d)] = Payload::wrap(std::move(msg));
    }
    auto got = comm.alltoall_payload(std::move(buffers));
    ASSERT_EQ(static_cast<int>(got.size()), p);
    for (int s = 0; s < p; ++s) {
      const Payload& piece = got[static_cast<std::size_t>(s)];
      ASSERT_EQ(piece.size(), 2u);
      EXPECT_EQ(piece.data()[0], static_cast<std::byte>(s));
      EXPECT_EQ(piece.data()[1], static_cast<std::byte>(comm.rank()));
    }
  });
}

TEST_P(CommCollectives, BarrierCompletes) {
  const int p = GetParam();
  run(p, [](Comm& comm) {
    for (int i = 0; i < 5; ++i) comm.barrier();
  });
}

TEST_P(CommCollectives, SplitEvenOdd) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    const int group = comm.rank() % 2;
    const int expected_size = p / 2 + ((p % 2 == 1 && group == 0) ? 1 : 0);
    EXPECT_EQ(sub.size(), expected_size);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Collectives inside the child work and do not leak across groups.
    const std::int64_t sum = sub.allreduce_sum<std::int64_t>(comm.rank());
    std::int64_t expect = 0;
    for (int r = group; r < p; r += 2) expect += r;
    EXPECT_EQ(sum, expect);
  });
}

TEST_P(CommCollectives, SplitReversedKeyReordersRanks) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    Comm sub = comm.split(0, /*key=*/-comm.rank());
    EXPECT_EQ(sub.size(), p);
    EXPECT_EQ(sub.rank(), p - 1 - comm.rank());
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CommCollectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

class CommGather : public ::testing::TestWithParam<int> {};

TEST_P(CommGather, RootReceivesSendersAllocationsInRankOrder) {
  const int p = GetParam();
  // Each rank records where its payload's bytes live before sending; the
  // mailbox handoff orders that write before rank 0's read.
  std::vector<const std::byte*> sent(static_cast<std::size_t>(p), nullptr);
  run(p, [p, &sent](Comm& comm) {
    // Rank r contributes r + 1 bytes, each with value r.
    std::vector<std::byte> mine(static_cast<std::size_t>(comm.rank()) + 1,
                                static_cast<std::byte>(comm.rank()));
    Payload payload = Payload::wrap(std::move(mine));
    sent[static_cast<std::size_t>(comm.rank())] = payload.data();
    const std::vector<Payload> all = comm.gather_payload(std::move(payload));
    if (comm.rank() != 0) {
      EXPECT_TRUE(all.empty());
      return;
    }
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r) {
      const Payload& piece = all[static_cast<std::size_t>(r)];
      ASSERT_EQ(piece.size(), static_cast<std::size_t>(r) + 1);
      EXPECT_EQ(piece.data(), sent[static_cast<std::size_t>(r)])
          << "rank " << r << "'s payload was copied";
      for (std::size_t i = 0; i < piece.size(); ++i)
        EXPECT_EQ(piece.data()[i], static_cast<std::byte>(r));
    }
  });
}

TEST_P(CommGather, ZeroLengthPayloads) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    // Odd ranks send nothing; even ranks send one byte.
    std::vector<std::byte> mine(comm.rank() % 2 == 0 ? 1 : 0,
                                std::byte{7});
    const std::vector<Payload> all =
        comm.gather_payload(Payload::wrap(std::move(mine)));
    if (comm.rank() != 0) {
      EXPECT_TRUE(all.empty());
      return;
    }
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)].size(),
                r % 2 == 0 ? 1u : 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CommGather,
                         ::testing::Values(1, 3, 4, 16));

TEST(CommAbort, ExceptionInOneRankUnblocksOthers) {
  EXPECT_THROW(
      run(4,
          [](Comm& comm) {
            if (comm.rank() == 2) throw std::runtime_error("rank 2 died");
            // Everyone else blocks on a message that never comes; they must
            // be torn down by the abort instead of deadlocking.
            (void)comm.recv_value<int>((comm.rank() + 1) % 4, 99);
          }),
      std::runtime_error);
}

TEST(CommTraffic, SendBytesAreCounted) {
  auto result = run(2, [](Comm& comm) {
    comm.set_phase("phase-a");
    if (comm.rank() == 0) {
      comm.send_vec<std::int64_t>(1, 1, {1, 2, 3});
    } else {
      (void)comm.recv_vec<std::int64_t>(0, 1);
    }
  });
  const auto summary = result.traffic_summary();
  const auto it = summary.total_per_phase.find("phase-a");
  ASSERT_NE(it, summary.total_per_phase.end());
  EXPECT_EQ(it->second.messages, 1u);
  EXPECT_EQ(it->second.bytes, 3 * sizeof(std::int64_t));
}

}  // namespace
}  // namespace casp::vmpi
