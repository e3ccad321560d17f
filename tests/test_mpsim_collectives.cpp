// Integration tests for every Comm collective, run on real thread-backed
// rank sets of several sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "mpsim/comm.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/runtime.hpp"

namespace drcm::mps {
namespace {

class CollectivesTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 7, 9, 16));

TEST_P(CollectivesTest, BarrierCompletes) {
  Runtime::run(GetParam(), [](Comm& comm) {
    for (int i = 0; i < 10; ++i) comm.barrier();
  });
  SUCCEED();
}

TEST_P(CollectivesTest, BcastReplicatesRootVector) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    const int root = comm.size() - 1;
    std::vector<std::int64_t> data;
    if (comm.rank() == root) data = {10, 20, 30, 40};
    comm.bcast(data, root);
    ASSERT_EQ(data.size(), 4u);
    EXPECT_EQ(data[0], 10);
    EXPECT_EQ(data[3], 40);
  });
}

TEST_P(CollectivesTest, AllreduceSumAndMin) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    const std::int64_t r = comm.rank();
    const auto sum = comm.allreduce(r, [](std::int64_t a, std::int64_t b) {
      return a + b;
    });
    EXPECT_EQ(sum, static_cast<std::int64_t>(p) * (p - 1) / 2);
    const auto mn = comm.allreduce(r + 5, [](std::int64_t a, std::int64_t b) {
      return std::min(a, b);
    });
    EXPECT_EQ(mn, 5);
  });
}

TEST_P(CollectivesTest, AllreduceArgminPairIsDeterministic) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    // Every rank proposes the same degree; the tie must break to the
    // smallest vertex id on every rank identically.
    struct Cand {
      std::int64_t degree;
      std::int64_t vertex;
    };
    const Cand mine{42, 100 + comm.rank()};
    const Cand best = comm.allreduce(mine, [](const Cand& a, const Cand& b) {
      if (a.degree != b.degree) return a.degree < b.degree ? a : b;
      return a.vertex <= b.vertex ? a : b;
    });
    EXPECT_EQ(best.degree, 42);
    EXPECT_EQ(best.vertex, 100);
  });
}

TEST_P(CollectivesTest, AllgatherCollectsOnePerRank) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    const auto all = comm.allgather(static_cast<std::int64_t>(comm.rank() * comm.rank()));
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], static_cast<std::int64_t>(r) * r);
    }
  });
}

TEST_P(CollectivesTest, AllgathervConcatenatesInRankOrder) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    // Rank r contributes r copies of value r (rank 0 contributes nothing).
    std::vector<std::int64_t> local(static_cast<std::size_t>(comm.rank()),
                                    comm.rank());
    const auto all = comm.allgatherv(std::span<const std::int64_t>(local));
    std::vector<std::int64_t> expect;
    for (std::int64_t r = 0; r < p; ++r) {
      expect.insert(expect.end(), static_cast<std::size_t>(r), r);
    }
    EXPECT_EQ(all, expect);
  });
}

TEST_P(CollectivesTest, AlltoallvRoutesEveryPair) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    // Rank s sends {s*1000 + d} to destination d, plus d extra sentinels.
    std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      auto& buf = send[static_cast<std::size_t>(d)];
      buf.push_back(comm.rank() * 1000 + d);
      buf.insert(buf.end(), static_cast<std::size_t>(d), -1);
    }
    std::vector<std::int64_t> counts;
    const auto recv = comm.alltoallv(send, &counts);
    ASSERT_EQ(static_cast<int>(counts.size()), p);
    std::size_t pos = 0;
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(counts[static_cast<std::size_t>(s)], 1 + comm.rank());
      EXPECT_EQ(recv[pos], s * 1000 + comm.rank());
      pos += static_cast<std::size_t>(counts[static_cast<std::size_t>(s)]);
    }
    EXPECT_EQ(pos, recv.size());
  });
}

TEST_P(CollectivesTest, ExscanSumIsExclusivePrefix) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    const auto prefix = comm.exscan_sum(static_cast<std::int64_t>(comm.rank() + 1));
    // Exclusive prefix of 1,2,3,... is r*(r+1)/2.
    const std::int64_t r = comm.rank();
    EXPECT_EQ(prefix, r * (r + 1) / 2);
  });
}

TEST_P(CollectivesTest, PairwiseExchangeWithReversalPartner) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    const int partner = comm.size() - 1 - comm.rank();
    std::vector<std::int64_t> send(3, comm.rank());
    const auto recv =
        comm.pairwise_exchange(partner, std::span<const std::int64_t>(send));
    ASSERT_EQ(recv.size(), 3u);
    EXPECT_EQ(recv[0], partner);
  });
}

TEST_P(CollectivesTest, SplitFormsRowGroups) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    // Split into pairs: color = rank/2.
    const int color = comm.rank() / 2;
    Comm sub = comm.split(color, comm.rank());
    const int expected_size =
        (color == p / 2) ? (p % 2 == 0 ? 2 : 1) : 2;
    EXPECT_EQ(sub.size(), expected_size);
    EXPECT_EQ(sub.rank(), comm.rank() % 2);
    // The sub-communicator must be fully functional.
    const auto sum = sub.allreduce(static_cast<std::int64_t>(1),
                                   [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(sum, expected_size);
  });
}

TEST_P(CollectivesTest, SplitRanksByKeyDescending) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    // All ranks in one group, keys reversed: new rank = p-1-old.
    Comm sub = comm.split(0, comm.size() - comm.rank());
    EXPECT_EQ(sub.size(), p);
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST_P(CollectivesTest, ConcurrentSubcommunicatorsDoNotInterfere) {
  const int p = GetParam();
  if (p < 4) GTEST_SKIP() << "needs at least 2 groups of 2";
  Runtime::run(p, [&](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    // Both groups run a long sequence of collectives concurrently.
    for (int i = 0; i < 25; ++i) {
      const auto all = sub.allgather(static_cast<std::int64_t>(comm.rank()));
      for (const auto v : all) {
        EXPECT_EQ(v % 2, comm.rank() % 2);
      }
    }
  });
}

TEST_P(CollectivesTest, ChargesCommCostsToCurrentPhase) {
  const int p = GetParam();
  auto report = Runtime::run(p, [&](Comm& comm) {
    {
      PhaseScope scope(comm, Phase::kOrderingSort);
      std::vector<std::vector<std::int64_t>> send(
          static_cast<std::size_t>(comm.size()));
      for (auto& buf : send) buf.assign(10, 1);
      comm.alltoallv(send);
    }
    comm.charge_compute(1000.0);  // lands in kOther
  });
  const auto sort = report.aggregate(Phase::kOrderingSort);
  const auto other = report.aggregate(Phase::kOther);
  if (p > 1) {
    EXPECT_GT(sort.max.model_comm_seconds, 0.0);
    EXPECT_GT(sort.max.messages, 0u);
  }
  EXPECT_DOUBLE_EQ(other.max.compute_units, 1000.0);
  EXPECT_GT(other.max.model_compute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(sort.max.compute_units, 0.0);
}

TEST_P(CollectivesTest, EmptyContributionsAreLegal) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    std::vector<std::int64_t> empty;
    const auto gathered = comm.allgatherv(std::span<const std::int64_t>(empty));
    EXPECT_TRUE(gathered.empty());
    std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(p));
    const auto recv = comm.alltoallv(send);
    EXPECT_TRUE(recv.empty());
  });
}

TEST(BoardReuse, BackToBackMixedCollectivesWithASlowReader) {
  // Double-buffered boards: a collective publishes on board[c % 2] and
  // reads it after crossing c, so a fast rank's next publish lands on the
  // OTHER board, and it cannot write this one again before every rank has
  // arrived at crossing c + 1. Here every collective kind runs back to
  // back — allreduce, alltoallv, allgatherv, split (+ a sub-communicator
  // allreduce), the fused three-superstep level and the fused
  // five-superstep ordering level — while rank 1 sleeps after every
  // crossing, before the reads it opens. A board-reuse bug shows up as a
  // wrong value on the slow rank.
  constexpr int kIterations = 40;
  for (const int p : {4, 9}) {
    FaultPlan perturb;
    perturb.delay_reads(1);
    RunOptions options;
    options.faults = &perturb;
    Runtime::run(
        p,
        [&](Comm& world) {
          const int me = world.rank();
          std::vector<std::int64_t> gather_buf, recv_buf, rank_recv_buf;
          std::vector<std::vector<std::int64_t>> route_buf, rank_route_buf;
          std::vector<int> carry_buf, carry_all;
          std::vector<std::vector<std::int64_t>> sort_route_buf;
          std::vector<std::int64_t> sort_recv_buf;
          for (int i = 0; i < kIterations; ++i) {
            const auto sum = world.allreduce(
                static_cast<std::int64_t>(me + i),
                [](std::int64_t x, std::int64_t y) { return x + y; });
            EXPECT_EQ(sum, static_cast<std::int64_t>(p) * i + p * (p - 1) / 2);

            std::vector<std::vector<std::int64_t>> send(
                static_cast<std::size_t>(p));
            for (int d = 0; d < p; ++d) {
              send[static_cast<std::size_t>(d)].assign(
                  static_cast<std::size_t>((me + d + i) % 3 + 1),
                  me * 1000 + d + i);
            }
            std::vector<std::int64_t> counts;
            const auto recv = world.alltoallv(send, &counts);
            std::size_t at = 0;
            for (int s = 0; s < p; ++s) {
              const auto c = static_cast<std::size_t>((s + me + i) % 3 + 1);
              ASSERT_EQ(counts[static_cast<std::size_t>(s)],
                        static_cast<std::int64_t>(c));
              for (std::size_t k = 0; k < c; ++k) {
                EXPECT_EQ(recv[at++], s * 1000 + me + i);
              }
            }

            const std::vector<std::int64_t> mine(
                static_cast<std::size_t>((me + i) % 4), me * 100 + i);
            const auto all =
                world.allgatherv(std::span<const std::int64_t>(mine));
            at = 0;
            for (int r = 0; r < p; ++r) {
              for (int k = 0; k < (r + i) % 4; ++k) {
                EXPECT_EQ(all[at++], r * 100 + i);
              }
            }
            EXPECT_EQ(at, all.size());

            Comm sub = world.split((me + i) % 2, -me);
            int members = 0, rank_in_sub = 0;
            for (int r = 0; r < p; ++r) {
              if ((r + i) % 2 != (me + i) % 2) continue;
              ++members;
              if (r > me) ++rank_in_sub;  // key -rank: descending world rank
            }
            EXPECT_EQ(sub.size(), members);
            EXPECT_EQ(sub.rank(), rank_in_sub);
            const auto sub_sum =
                sub.allreduce(me, [](int x, int y) { return x + y; });
            int want = 0;
            for (int r = 0; r < p; ++r) {
              if ((r + i) % 2 == (me + i) % 2) want += r;
            }
            EXPECT_EQ(sub_sum, want);

            std::vector<int> peers(static_cast<std::size_t>(p));
            std::iota(peers.begin(), peers.end(), 0);
            const std::int64_t local[] = {me * 10 + i};
            const auto route = [&](const std::vector<std::int64_t>& gathered,
                                   std::vector<std::vector<std::int64_t>>& out) {
              out.assign(static_cast<std::size_t>(p), {});
              for (int r = 0; r < p; ++r) {
                EXPECT_EQ(gathered[static_cast<std::size_t>(r)], r * 10 + i);
                out[static_cast<std::size_t>(r)] = {gathered[static_cast<std::size_t>(r)] + 1};
              }
            };
            const auto check_routed = [&](const std::vector<std::int64_t>& got) {
              EXPECT_EQ(got.size(), static_cast<std::size_t>(p));
              for (const auto v : got) EXPECT_EQ(v, me * 10 + i + 1);
            };
            const auto level_total = world.fused_gather_route_count(
                std::span<const int>(peers), std::span<const std::int64_t>(local),
                gather_buf, route_buf, recv_buf, route,
                [&](const std::vector<std::int64_t>& got) -> std::int64_t {
                  check_routed(got);
                  return static_cast<std::int64_t>(got.size());
                });
            EXPECT_EQ(level_total, static_cast<std::int64_t>(p) * p);

            const auto order_total = world.fused_order_level(
                std::span<const int>(peers), std::span<const std::int64_t>(local),
                gather_buf, route_buf, recv_buf, carry_buf, carry_all,
                sort_route_buf, sort_recv_buf, rank_route_buf, rank_recv_buf,
                route,
                [&](const std::vector<std::int64_t>& got,
                    std::vector<int>& carry) -> std::int64_t {
                  check_routed(got);
                  carry = {me, i};
                  return static_cast<std::int64_t>(got.size());
                },
                [&](std::int64_t total, const std::vector<int>& carries,
                    std::vector<std::vector<std::int64_t>>& out) {
                  EXPECT_EQ(total, static_cast<std::int64_t>(p) * p);
                  ASSERT_EQ(carries.size(), static_cast<std::size_t>(2 * p));
                  for (int r = 0; r < p; ++r) {
                    EXPECT_EQ(carries[static_cast<std::size_t>(2 * r)], r);
                    EXPECT_EQ(carries[static_cast<std::size_t>(2 * r + 1)], i);
                  }
                  out.assign(static_cast<std::size_t>(p), {});
                  for (int d = 0; d < p; ++d) {
                    out[static_cast<std::size_t>(d)] = {me * 7 + d + i};
                  }
                },
                [&](const std::vector<std::int64_t>& got,
                    std::span<const std::uint64_t> per_source,
                    std::vector<std::vector<std::int64_t>>& out) {
                  ASSERT_EQ(got.size(), static_cast<std::size_t>(p));
                  for (int s = 0; s < p; ++s) {
                    EXPECT_EQ(per_source[static_cast<std::size_t>(s)], 1u);
                    EXPECT_EQ(got[static_cast<std::size_t>(s)], s * 7 + me + i);
                  }
                  out.assign(static_cast<std::size_t>(p), {});
                  for (int d = 0; d < p; ++d) {
                    out[static_cast<std::size_t>(d)] = {me * 3 + d + i};
                  }
                },
                [&](const std::vector<std::int64_t>& got) {
                  ASSERT_EQ(got.size(), static_cast<std::size_t>(p));
                  for (int s = 0; s < p; ++s) {
                    EXPECT_EQ(got[static_cast<std::size_t>(s)], s * 3 + me + i);
                  }
                });
            EXPECT_EQ(order_total, static_cast<std::int64_t>(p) * p);
          }
        },
        options);
  }
}

}  // namespace
}  // namespace drcm::mps
