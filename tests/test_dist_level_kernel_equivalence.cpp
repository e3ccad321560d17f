// Randomized equivalence suite for the fused BFS level kernel: on
// Erdős–Rényi and grid graphs, under the {1,4,9} x {1,2,6} rank x thread
// matrix, the fused kernel, the unfused primitive chain, and both forced
// accumulator arms must produce bit-identical frontiers, levels and labels
// — including the degree-tie determinism the ordering quality contract
// rests on. The thread axis drives the hybrid node-level SpMSpV (per-
// thread SPAs / sort-merge stripes with a deterministic ordered merge), so
// every point of the matrix is held to the same serial reference.
//
// The sweep honors DRCM_TEST_RANKS / DRCM_TEST_THREADS (a single rank or
// thread count each) so CI can run the same suite once per configuration.
#include "dist/level_kernel.hpp"

#include <gtest/gtest.h>

#include <queue>

#include "common/rng.hpp"
#include "dist_rank_matrix.hpp"
#include "dist/primitives.hpp"
#include "mpsim/runtime.hpp"
#include "order/rcm_serial.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;
using sparse::CsrMatrix;
namespace gen = sparse::gen;

using drcm::dist::testing::rank_counts;
using drcm::dist::testing::thread_counts;

/// Plain serial BFS distances: the oracle for the level loop.
std::vector<index_t> serial_levels(const CsrMatrix& a, index_t root) {
  std::vector<index_t> lvl(static_cast<std::size_t>(a.n()), kNoVertex);
  lvl[static_cast<std::size_t>(root)] = 0;
  std::queue<index_t> q;
  q.push(root);
  while (!q.empty()) {
    const index_t u = q.front();
    q.pop();
    for (const index_t v : a.row(u)) {
      if (lvl[static_cast<std::size_t>(v)] == kNoVertex) {
        lvl[static_cast<std::size_t>(v)] = lvl[static_cast<std::size_t>(u)] + 1;
        q.push(v);
      }
    }
  }
  return lvl;
}

/// The randomized graph pool: ER at several densities plus 2D/3D grids
/// (mass degree ties) and a randomly relabeled grid (scattered ownership).
CsrMatrix sweep_graph(u64 seed) {
  switch (seed % 6) {
    case 0: return gen::erdos_renyi(90 + 7 * static_cast<index_t>(seed % 5),
                                    3.0 + static_cast<double>(seed % 4), seed);
    case 1: return gen::erdos_renyi(140, 6.5, seed);
    case 2: return gen::grid2d(9 + static_cast<index_t>(seed % 4), 11);
    case 3: return gen::grid3d(4, 5, 4 + static_cast<index_t>(seed % 3));
    case 4: return gen::relabel_random(gen::grid2d(12, 10), seed);
    default: return gen::erdos_renyi(60, 2.0, seed);  // fragmented
  }
}

void expect_same_step(const LevelStepResult& a, const LevelStepResult& b,
                      const char* what, int p, u64 seed, index_t depth) {
  EXPECT_EQ(a.global_nnz, b.global_nnz)
      << what << " p=" << p << " seed=" << seed << " depth=" << depth;
  EXPECT_EQ(a.next.entries(), b.next.entries())
      << what << " p=" << p << " seed=" << seed << " depth=" << depth;
}

TEST(LevelKernelEquivalence, RandomizedBfsSweepAllPathsBitIdentical) {
  for (u64 seed = 1; seed <= 12; ++seed) {
    const auto a = sweep_graph(seed);
    if (a.n() == 0) continue;
    const auto root =
        static_cast<index_t>(splitmix64(seed) % static_cast<u64>(a.n()));
    const auto want = serial_levels(a, root);
    for (const int p : rank_counts()) {
      for (const int t : thread_counts()) {
      Runtime::run(p, [&](Comm& world) {
        ProcGrid2D grid(world);
        DistSpMat mat(grid, a);
        DistDenseVec levels(mat.vec_dist(), grid, kNoVertex);
        if (levels.owns(root)) levels.set(root, 0);
        DistSpVec frontier(mat.vec_dist(), grid);
        if (frontier.lo() <= root && root < frontier.hi()) {
          frontier.assign({VecEntry{root, 0}});
        }
        index_t depth = 0;
        while (true) {
          // The fused kernel under every arm, plus the unfused primitive
          // chain, on identical inputs. All four must agree bitwise.
          const auto fused = bfs_level_step(
              mat, frontier, levels, kNoVertex, grid,
              mps::Phase::kOrderingSpmspv, mps::Phase::kOrderingOther,
              SpmspvAccumulator::kAuto);
          const auto spa = bfs_level_step(
              mat, frontier, levels, kNoVertex, grid,
              mps::Phase::kOrderingSpmspv, mps::Phase::kOrderingOther,
              SpmspvAccumulator::kSpa);
          const auto merge = bfs_level_step(
              mat, frontier, levels, kNoVertex, grid,
              mps::Phase::kOrderingSpmspv, mps::Phase::kOrderingOther,
              SpmspvAccumulator::kSortMerge);
          const auto unfused = bfs_level_step_unfused(
              mat, frontier, levels, kNoVertex, grid,
              mps::Phase::kPeripheralSpmspv, mps::Phase::kPeripheralOther,
              SpmspvAccumulator::kAuto);
          expect_same_step(fused, spa, "fused-auto vs fused-spa", p, seed,
                           depth);
          expect_same_step(fused, merge, "fused-auto vs fused-sortmerge", p,
                           seed, depth);
          expect_same_step(fused, unfused, "fused vs unfused chain", p, seed,
                           depth);
          if (fused.global_nnz == 0) break;
          ++depth;
          std::vector<VecEntry> leveled(fused.next.entries().begin(),
                                        fused.next.entries().end());
          for (auto& e : leveled) e.val = depth;
          scatter_into_dense(levels, fused.next.sibling(std::move(leveled)),
                             world);
          frontier = fused.next;
        }
        const auto got = levels.to_global(world);
        if (world.rank() == 0) {
          EXPECT_EQ(got, want) << "levels vs serial BFS, p=" << p
                               << " t=" << t << " seed=" << seed;
        }
      }, {}, t);
      }
    }
  }
}

TEST(LevelKernelEquivalence, RandomFrontiersNotJustBfsFrontiers) {
  // BFS frontiers are special (values from a contiguous range, dense
  // support patterns); the kernel contract is broader. Drive random
  // supports with random values and random keep-sentinels through both
  // paths.
  for (u64 seed = 20; seed <= 26; ++seed) {
    const auto a = sweep_graph(seed);
    Rng rng(seed * 17);
    std::vector<VecEntry> global_frontier;
    for (index_t v = 0; v < a.n(); ++v) {
      if (rng.next_below(3) == 0) {
        global_frontier.push_back(
            VecEntry{v, static_cast<index_t>(rng.next_below(50))});
      }
    }
    // Mark a random subset "visited" so SELECT has real work.
    std::vector<index_t> mark(static_cast<std::size_t>(a.n()), kNoVertex);
    for (index_t v = 0; v < a.n(); ++v) {
      if (rng.next_below(4) == 0) mark[static_cast<std::size_t>(v)] = 7;
    }
    for (const int p : rank_counts()) {
      for (const int t : thread_counts()) {
      Runtime::run(p, [&](Comm& world) {
        ProcGrid2D grid(world);
        DistSpMat mat(grid, a);
        DistDenseVec dense(mat.vec_dist(), grid, kNoVertex);
        for (index_t g = dense.lo(); g < dense.hi(); ++g) {
          dense.set(g, mark[static_cast<std::size_t>(g)]);
        }
        DistSpVec x(mat.vec_dist(), grid);
        std::vector<VecEntry> mine;
        for (const auto& e : global_frontier) {
          if (e.idx >= x.lo() && e.idx < x.hi()) mine.push_back(e);
        }
        x.assign(mine);
        // Note: SET refreshes values from `dense` in both paths, so the
        // random values only exercise the publish plumbing; minima then
        // flow from the dense vector. That matches the BFS loops' usage.
        const auto fused = bfs_level_step(
            mat, x, dense, kNoVertex, grid, mps::Phase::kOrderingSpmspv,
            mps::Phase::kOrderingOther, SpmspvAccumulator::kSpa);
        const auto unfused = bfs_level_step_unfused(
            mat, x, dense, kNoVertex, grid, mps::Phase::kOrderingSpmspv,
            mps::Phase::kOrderingOther, SpmspvAccumulator::kSortMerge);
        expect_same_step(fused, unfused, "random frontier fused vs unfused",
                         p, seed * 100 + static_cast<u64>(t), 0);
      }, {}, t);
      }
    }
  }
}

TEST(LevelKernelEquivalence, FullOrderingDegreeTieDeterminism) {
  // RCM++ (Hou & Liu 2024) point: ordering quality is only trustworthy
  // with deterministic level-by-level tie-breaking. Regular graphs make
  // every degree compare equal, so the ordering is pure tie-breaking; it
  // must be bit-identical to serial RCM for every rank count and every
  // accumulator arm.
  const CsrMatrix graphs[] = {
      gen::cycle(48),                          // all degrees 2
      gen::grid2d(13, 13),                     // mass interior ties
      gen::relabel_random(gen::grid3d(4, 4, 6), 3),
      gen::disjoint_union({gen::cycle(9), gen::path(8), gen::star(6)}),
  };
  for (const auto& a : graphs) {
    const auto want = order::rcm_serial(a);
    for (const int p : rank_counts()) {
      for (const int t : thread_counts()) {
        for (const auto acc :
             {SpmspvAccumulator::kAuto, SpmspvAccumulator::kSpa,
              SpmspvAccumulator::kSortMerge}) {
          rcm::DistRcmOptions opt;
          opt.accumulator = acc;
          opt.threads = t;
          const auto run = rcm::run_dist_rcm(p, a, opt);
          EXPECT_EQ(run.labels, want)
              << "p=" << p << " t=" << t << " acc=" << static_cast<int>(acc);
        }
      }
    }
  }
}

TEST(LevelKernelEquivalence, AutoSelectResolvesToSpa) {
  // With output-sensitive SPA emission there is no frontier-size crossover
  // left: kAuto (DRCM_SPMSPV_ACC unset) is the SPA on every level.
  EXPECT_EQ(resolve_accumulator(SpmspvAccumulator::kAuto),
            SpmspvAccumulator::kSpa);
  // Pinned arms pass through untouched.
  EXPECT_EQ(resolve_accumulator(SpmspvAccumulator::kSpa),
            SpmspvAccumulator::kSpa);
  EXPECT_EQ(resolve_accumulator(SpmspvAccumulator::kSortMerge),
            SpmspvAccumulator::kSortMerge);
}

TEST(LevelKernelEquivalence, EnvOverridePinsTheArm) {
  const auto a = gen::grid2d(10, 10);
  const auto run_used = [&]() {
    SpmspvAccumulator used{};
    Runtime::run(1, [&](Comm& world) {
      ProcGrid2D grid(world);
      DistSpMat mat(grid, a);
      DistDenseVec dense(mat.vec_dist(), grid, kNoVertex);
      DistSpVec x(mat.vec_dist(), grid);
      std::vector<VecEntry> all;
      for (index_t v = 0; v < a.n(); ++v) all.push_back(VecEntry{v, v});
      x.assign(all);
      const auto step = bfs_level_step(mat, x, dense, kNoVertex, grid,
                                       mps::Phase::kOrderingSpmspv,
                                       mps::Phase::kOrderingOther);
      used = step.used;
    });
    return used;
  };
  // Full frontier on a grid: the heuristic picks the SPA...
  EXPECT_EQ(run_used(), SpmspvAccumulator::kSpa);
  // ...but the environment override pins either arm without recompiling.
  ASSERT_EQ(setenv("DRCM_SPMSPV_ACC", "sortmerge", 1), 0);
  EXPECT_EQ(run_used(), SpmspvAccumulator::kSortMerge);
  ASSERT_EQ(setenv("DRCM_SPMSPV_ACC", "spa", 1), 0);
  EXPECT_EQ(run_used(), SpmspvAccumulator::kSpa);
  ASSERT_EQ(unsetenv("DRCM_SPMSPV_ACC"), 0);
}

TEST(LevelKernelEquivalence, ThreadsKnobResolvesThroughTheEnvironment) {
  // DistRcmOptions::threads: positive requests pass through; 0 falls back
  // to DRCM_THREADS, then to flat MPI.
  EXPECT_EQ(rcm::resolve_threads(4), 4);
  EXPECT_EQ(rcm::resolve_threads(0), 1);
  ASSERT_EQ(setenv("DRCM_THREADS", "6", 1), 0);
  EXPECT_EQ(rcm::resolve_threads(0), 6);
  EXPECT_EQ(rcm::resolve_threads(2), 2);  // explicit request wins
  ASSERT_EQ(unsetenv("DRCM_THREADS"), 0);
  EXPECT_EQ(rcm::resolve_threads(0), 1);
}

}  // namespace
}  // namespace drcm::dist
