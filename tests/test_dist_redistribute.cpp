// Tests for the root-rooted collectives and the distributed in-place
// permutation (redistribute_to_row_blocks), including the full pipeline the
// paper's conclusion describes: order on the grid, permute on the grid,
// no gather anywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "dist/redistribute.hpp"
#include "mpsim/runtime.hpp"
#include "order/rcm_serial.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"
#include "sparse/metrics.hpp"
#include "sparse/permute.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;
namespace gen = sparse::gen;

class RootCollectives : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, RootCollectives, ::testing::Values(1, 2, 5, 9));

TEST_P(RootCollectives, GathervConcentratesOnRoot) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& world) {
    const int root = world.size() / 2;
    std::vector<std::int64_t> mine(static_cast<std::size_t>(world.rank() + 1),
                                   world.rank());
    const auto out = world.gatherv(std::span<const std::int64_t>(mine), root);
    if (world.rank() == root) {
      std::size_t expected = 0;
      for (int r = 0; r < p; ++r) expected += static_cast<std::size_t>(r + 1);
      ASSERT_EQ(out.size(), expected);
      // Rank r's block holds r+1 copies of r, in rank order.
      std::size_t pos = 0;
      for (int r = 0; r < p; ++r) {
        for (int k = 0; k <= r; ++k) EXPECT_EQ(out[pos++], r);
      }
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
}

TEST_P(RootCollectives, ScattervDistributesChunks) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& world) {
    const int root = 0;
    std::vector<std::vector<std::int64_t>> chunks;
    if (world.rank() == root) {
      chunks.resize(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        chunks[static_cast<std::size_t>(r)].assign(static_cast<std::size_t>(r + 2),
                                                   100 + r);
      }
    }
    const auto mine = world.scatterv(chunks, root);
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(world.rank() + 2));
    for (const auto v : mine) EXPECT_EQ(v, 100 + world.rank());
  });
}

TEST_P(RootCollectives, ReduceToRootOnly) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& world) {
    const int root = world.size() - 1;
    const auto sum = world.reduce(
        static_cast<std::int64_t>(world.rank() + 1),
        [](std::int64_t a, std::int64_t b) { return a + b; }, root);
    if (world.rank() == root) {
      EXPECT_EQ(sum, static_cast<std::int64_t>(p) * (p + 1) / 2);
    } else {
      EXPECT_EQ(sum, 0);
    }
  });
}

TEST(RootCollectives, RootOutOfRangeThrows) {
  Runtime::run(1, [](Comm& world) {
    std::vector<std::int64_t> v{1};
    EXPECT_THROW(world.gatherv(std::span<const std::int64_t>(v), 3), CheckError);
  });
}

/// Checks that this rank's row block is exactly its row slice of `want`
/// (the serially permuted matrix): same partition, same column ids, values
/// bit for bit.
void expect_row_slice_of(const RowBlockCsr& block, const sparse::CsrMatrix& want,
                         int p, int rank) {
  EXPECT_EQ(block.lo, row_block_lo(want.n(), p, rank));
  EXPECT_EQ(block.hi, row_block_lo(want.n(), p, rank + 1));
  for (index_t g = block.lo; g < block.hi; ++g) {
    const auto got = block.row(g);
    const auto exp = want.row(g);
    ASSERT_EQ(got.size(), exp.size()) << "row " << g;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k], exp[k]);
      EXPECT_EQ(block.row_values(g)[k], want.row_values(g)[k]);
    }
  }
}

class RedistributeGrids : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Grids, RedistributeGrids, ::testing::Values(1, 4, 9, 16));

TEST_P(RedistributeGrids, MatchesSequentialPermutation) {
  const int p = GetParam();
  for (u64 seed : {1u, 5u}) {
    const auto a =
        gen::with_laplacian_values(gen::erdos_renyi(70, 5.0, seed), 0.02);
    const auto labels = sparse::random_permutation(a.n(), seed + 100);
    const auto want = sparse::permute_symmetric(a, labels);
    Runtime::run(p, [&](Comm& world) {
      ProcGrid2D grid(world);
      const auto moved = redistribute_to_row_blocks(a, labels, grid).block;
      // The redistributed row block must equal the same rows of the
      // sequentially permuted matrix, and the blocks together must hold
      // every entry exactly once.
      expect_row_slice_of(moved, want, p, world.rank());
      const auto total = world.allreduce(
          moved.local_nnz(), [](nnz_t x, nnz_t y) { return x + y; });
      EXPECT_EQ(total, want.nnz());
    });
  }
}

TEST_P(RedistributeGrids, FullInPlacePipeline) {
  // The paper's conclusion pipeline: compute RCM on the grid, then permute
  // the matrix on the grid — never gathering anything — and verify the
  // redistributed matrix has the RCM bandwidth.
  const int p = GetParam();
  const auto pattern = gen::relabel_random(gen::grid2d(12, 12), 3);
  const auto a = gen::with_laplacian_values(pattern, 0.02);
  const auto expected_bw =
      sparse::bandwidth_with_labels(pattern, order::rcm_serial(pattern));
  Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    const auto labels = rcm::dist_rcm(world, pattern);
    const auto moved = redistribute_to_row_blocks(a, labels, grid);
    EXPECT_EQ(moved.bandwidth, expected_bw);
    // Bandwidth of the redistributed blocks, recomputed distributively from
    // the stored entries (diagonal included): each local entry's
    // |row - col| is a lower bound, and the max over all ranks is exact
    // because every entry lives somewhere.
    index_t local_bw = 0;
    for (index_t g = moved.block.lo; g < moved.block.hi; ++g) {
      for (const index_t c : moved.block.row(g)) {
        local_bw = std::max(local_bw, std::abs(g - c));
      }
    }
    const auto bw = world.allreduce(
        local_bw, [](index_t x, index_t y) { return std::max(x, y); });
    EXPECT_EQ(bw, expected_bw);
  });
}

TEST(Redistribute, IdentityIsNoop) {
  Runtime::run(4, [](Comm& world) {
    ProcGrid2D grid(world);
    const auto a = gen::with_laplacian_values(gen::grid2d_9pt(8, 8), 0.02);
    const auto moved =
        redistribute_to_row_blocks(a, sparse::identity_permutation(a.n()), grid)
            .block;
    expect_row_slice_of(moved, a, world.size(), world.rank());
  });
}

TEST(Redistribute, BadLabelSizeThrows) {
  Runtime::run(1, [](Comm& world) {
    ProcGrid2D grid(world);
    const auto a = gen::with_laplacian_values(gen::path(6), 0.02);
    std::vector<index_t> short_labels{0, 1, 2};
    EXPECT_THROW(redistribute_to_row_blocks(a, short_labels, grid), CheckError);
  });
}

}  // namespace
}  // namespace drcm::dist
