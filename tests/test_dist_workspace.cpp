// Tests for the per-rank DistWorkspace: the explicit replacement for the
// old `thread_local` SPA inside spmspv.cpp. Two properties are pinned:
// alternating kernels over matrices of different dimensions through ONE
// workspace never cross-contaminates results, and steady-state reuse
// (BFS level after BFS level) stops allocating after warm-up.
#include "dist/workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/spmspv.hpp"
#include "mpsim/runtime.hpp"
#include "rcm/dist_bfs.hpp"
#include "rcm/dist_rcm.hpp"
#include "sparse/generators.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;
namespace gen = sparse::gen;

TEST(StampedSlots, ShrinkingReuseCannotSeeStaleState) {
  StampedSlots s;
  s.begin(100);
  for (std::size_t i = 0; i < 100; ++i) s.put_min(i, 7);
  // A later, smaller epoch: every slot starts dead even though the storage
  // still physically holds the previous epoch's values.
  s.begin(10);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_FALSE(s.live(i));
  s.put_min(3, 5);
  s.put_min(3, 9);  // min-combine keeps 5
  EXPECT_TRUE(s.live(3));
  EXPECT_EQ(s.val[3], 5);
  EXPECT_FALSE(s.live(4));
}

TEST(StampedSlots, GrowthReportsReallocation) {
  StampedSlots s;
  EXPECT_TRUE(s.begin(8));
  EXPECT_FALSE(s.begin(8));
  EXPECT_FALSE(s.begin(4));
  EXPECT_TRUE(s.begin(16));
}

/// Emits `s` through emit_ascending as (slot, value) pairs.
std::vector<std::pair<std::size_t, index_t>> emitted(StampedSlots& s) {
  std::vector<std::pair<std::size_t, index_t>> out;
  s.emit_ascending([&](std::size_t slot, index_t v) {
    out.emplace_back(slot, v);
  });
  return out;
}

TEST(StampedSlots, EmissionIdenticalOnBothSidesOfTheCrossover) {
  // Touched counts just below the crossover take the sorted path, at and
  // above it the dense scan; both must emit the same ascending sequence.
  // The path taken is visible in `touched`: only the sorted path sorts it,
  // and recording stops at the crossover.
  constexpr std::size_t bar = 128;
  constexpr std::size_t kRange = bar * kSortedEmissionRatio;
  Rng rng(11);
  for (const std::size_t count : {bar - 1, bar, bar + 1}) {
    std::vector<std::size_t> slots(kRange);
    for (std::size_t i = 0; i < kRange; ++i) slots[i] = i;
    rng.shuffle(slots.begin(), slots.end());
    StampedSlots s;
    s.begin(kRange);
    std::vector<std::pair<std::size_t, index_t>> want;
    for (std::size_t i = 0; i < count; ++i) {
      const auto v = static_cast<index_t>(rng.next_below(1000));
      s.put_min(slots[i], v);
      want.emplace_back(slots[i], v);
    }
    std::sort(want.begin(), want.end());
    ASSERT_FALSE(std::is_sorted(s.touched.begin(), s.touched.end()));
    EXPECT_EQ(s.touched.size(), std::min(count, bar));
    EXPECT_EQ(emitted(s), want) << "touched=" << count;
    EXPECT_EQ(std::is_sorted(s.touched.begin(), s.touched.end()), count < bar)
        << "touched=" << count;
  }
}

TEST(StampedSlots, DuplicateTouchesEmitOnceWithTheMinimum) {
  for (const std::size_t range : {std::size_t{4096}, std::size_t{8}}) {
    StampedSlots s;
    s.begin(range);  // 4096: sorted path; 8: dense path
    s.put_min(5, 40);
    s.put_min(2, 9);
    s.put_min(5, 7);
    s.put_min(5, 30);
    s.put_min(2, 11);
    if (range == 4096) EXPECT_EQ(s.touched.size(), 2u);  // one per slot
    const std::vector<std::pair<std::size_t, index_t>> want{{2, 9}, {5, 7}};
    EXPECT_EQ(emitted(s), want) << "range=" << range;
  }
}

TEST(StampedSlots, SmallerEpochCannotEmitStaleSlots) {
  // A large epoch leaves live-looking values everywhere; a later, smaller
  // epoch must emit only its own writes on either path.
  for (const std::size_t writes : {std::size_t{1}, std::size_t{40}}) {
    StampedSlots s;
    s.begin(2000);
    for (std::size_t i = 0; i < 2000; ++i) s.put_min(i, 3);
    emitted(s);
    s.begin(64);
    EXPECT_TRUE(s.touched.empty());
    std::vector<std::pair<std::size_t, index_t>> want;
    for (std::size_t i = 0; i < writes; ++i) {
      s.put_min(63 - i, static_cast<index_t>(100 + i));
      want.emplace_back(63 - i, static_cast<index_t>(100 + i));
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(emitted(s), want) << "writes=" << writes;
  }
}

TEST(StampedSlots, TouchedGrowthIsCountedThenSettles) {
  DistWorkspace ws;
  const auto level = [&] {
    auto& spa = ws.spa(4096);
    for (std::size_t i = 0; i < 300; ++i) spa.put_min(i * 13, 1);
    emitted(spa);
  };
  level();
  const u64 first = ws.reallocations();
  level();  // the touched list grew during the first level
  EXPECT_GT(ws.reallocations(), first);
  const u64 settled = ws.reallocations();
  for (int i = 0; i < 5; ++i) level();
  EXPECT_EQ(ws.reallocations(), settled);
}

TEST(ThreadArms, StampedSlotsAreIsolatedBetweenThreads) {
  // Each hybrid thread accumulates into its own stamped SPA: a write
  // through arm t must be invisible to every other arm, and each arm keeps
  // its own min.
  DistWorkspace ws;
  auto spas = ws.thread_spas(3, 16);
  ASSERT_EQ(spas.size(), 3u);
  spas[0].put_min(5, 40);
  spas[1].put_min(5, 7);
  spas[1].put_min(5, 9);  // min-combine keeps 7
  EXPECT_TRUE(spas[0].live(5));
  EXPECT_TRUE(spas[1].live(5));
  EXPECT_FALSE(spas[2].live(5));
  EXPECT_EQ(spas[0].val[5], 40);
  EXPECT_EQ(spas[1].val[5], 7);
  EXPECT_FALSE(spas[0].live(6));
}

TEST(ThreadArms, CheckoutOpensAFreshEpochOnEveryArm) {
  // No cross-call state leakage: values written in one hybrid multiply
  // must be dead at the next checkout, including over a smaller row range
  // (the shrinking-matrix hazard the per-rank workspace exists to kill).
  DistWorkspace ws;
  auto spas = ws.thread_spas(2, 32);
  spas[0].put_min(3, 1);
  spas[1].put_min(3, 2);
  auto again = ws.thread_spas(2, 8);
  EXPECT_FALSE(again[0].live(3));
  EXPECT_FALSE(again[1].live(3));
  auto stripes = ws.thread_stripes(2);
  stripes[0].emit.push_back(VecEntry{1, 1});
  stripes[1].cursors.push_back(MergeCursor{{}, 0, 0});
  auto stripes_again = ws.thread_stripes(2);
  EXPECT_TRUE(stripes_again[0].emit.empty());
  EXPECT_TRUE(stripes_again[1].cursors.empty());
}

TEST(ThreadArms, TouchedRowListsClearAtCheckoutAndCountCapacity) {
  // Output-sensitive emission records each SPA's first-touched slots; the
  // lists must behave like every other workspace buffer: cleared at
  // checkout with capacity retained, growth observed by the realloc ledger.
  DistWorkspace ws;
  auto spas = ws.thread_spas(2, 4096);
  for (std::size_t s = 0; s < 64; ++s) spas[0].put_min(s, 5);
  for (std::size_t s = 0; s < 32; ++s) spas[1].put_min(2 * s, 7);
  const auto touched_cap = spas[0].touched.capacity();
  const u64 before = ws.reallocations();
  auto again = ws.thread_spas(2, 4096);
  EXPECT_GT(ws.reallocations(), before);  // growth seen at this checkout
  EXPECT_TRUE(again[0].touched.empty());
  EXPECT_TRUE(again[1].touched.empty());
  EXPECT_EQ(again[0].touched.capacity(), touched_cap);
  // Steady reuse is then free.
  const u64 settled = ws.reallocations();
  for (std::size_t s = 0; s < 64; ++s) again[0].put_min(s, 9);
  for (std::size_t s = 0; s < 32; ++s) again[1].put_min(2 * s, 9);
  ws.thread_spas(2, 4096);
  EXPECT_EQ(ws.reallocations(), settled);
}

TEST(ThreadArms, SparseAndDenseMergeRegimesEmitIdenticalEntries) {
  // Each hybrid kSpa thread emits its SPA by sorted touched list or by
  // dense scan, depending on how much of the 1000-row range it touched;
  // both regimes — and every thread count — must emit exactly the serial
  // arm's output. A 1-entry frontier (<= 7 touched rows, under the
  // 1000/kSortedEmissionRatio bar) exercises the sorted path, the full
  // frontier the dense path.
  const auto a = gen::grid3d(10, 10, 10);
  Runtime::run(1, [&](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat(grid, a);
    for (const index_t stride : {a.n(), index_t{97}, index_t{7}, index_t{1}}) {
      std::vector<VecEntry> frontier;
      for (index_t v = 0; v < a.n(); v += stride) {
        frontier.push_back(VecEntry{v, a.n() - v});
      }
      DistWorkspace serial_ws;
      double w0 = 0;
      const auto want = spmspv_local_multiply(
          mat, frontier, SpmspvAccumulator::kSpa, serial_ws, &w0, nullptr, 1);
      for (const int threads : {2, 3, 6}) {
        DistWorkspace ws;
        double w1 = 0;
        const auto got = spmspv_local_multiply(
            mat, frontier, SpmspvAccumulator::kSpa, ws, &w1, nullptr, threads);
        ASSERT_EQ(got, want) << "threads=" << threads << " stride=" << stride;
        EXPECT_EQ(w1, w0);  // modeled units are thread-invariant
      }
    }
  });
}

TEST(ThreadArms, SortMergeStripeMergeProbesEachHeadOncePerRound) {
  // The hybrid kSortMerge stage-2b merge used to scan every stripe head
  // TWICE per emitted row (one pass to find the minimum, a second to
  // re-find and advance the winners): 2*E*S + S probes for E emitted rows
  // from S stripes. The single-pass merge is pinned at exactly (E + 1) * S
  // — each round reads each head once, and the last round discovers every
  // head exhausted — while emitting bit-identical entries.
  const auto a = gen::grid3d(5, 5, 6);
  Runtime::run(1, [&](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat(grid, a);
    for (const index_t stride : {a.n(), index_t{7}, index_t{1}}) {
      std::vector<VecEntry> frontier;
      for (index_t v = 0; v < a.n(); v += stride) {
        frontier.push_back(VecEntry{v, a.n() - v});
      }
      DistWorkspace serial_ws;
      double w0 = 0;
      const auto want =
          spmspv_local_multiply(mat, frontier, SpmspvAccumulator::kSortMerge,
                                serial_ws, &w0, nullptr, 1);
      for (const u64 threads : {2u, 3u, 6u}) {
        DistWorkspace ws;
        double w1 = 0;
        const auto got = spmspv_local_multiply(
            mat, frontier, SpmspvAccumulator::kSortMerge, ws, &w1, nullptr,
            static_cast<int>(threads));
        ASSERT_EQ(got, want) << "threads=" << threads << " stride=" << stride;
        const u64 emitted = static_cast<u64>(got.size());
        EXPECT_EQ(ws.merge_probes(), (emitted + 1) * threads)
            << "threads=" << threads << " stride=" << stride;
      }
    }
    // Degenerate frontier: zero emitted rows still cost one probe per
    // stripe (the round that discovers there is nothing to merge).
    DistWorkspace ws;
    double w = 0;
    const std::vector<VecEntry> empty;
    const auto got = spmspv_local_multiply(
        mat, empty, SpmspvAccumulator::kSortMerge, ws, &w, nullptr, 4);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(ws.merge_probes(), 4u);
  });
}

TEST(ThreadArms, ReallocAccountingAcrossThreadCountChanges) {
  // Growing the thread count allocates (and is counted); shrinking
  // retains the extra arms' storage and re-growing back must be free, so a
  // rank alternating hybrid and flat calls settles like any other buffer.
  DistWorkspace ws;
  const auto warm = [&](std::size_t threads) {
    auto spas = ws.thread_spas(threads, 64);
    auto stripes = ws.thread_stripes(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      spas[t].put_min(t, 1);
      stripes[t].emit.assign(16, VecEntry{0, 0});
      stripes[t].heap.assign(8, {0, 0});
    }
  };
  warm(6);
  warm(6);  // capacities observed at the second checkout
  const u64 settled = ws.reallocations();
  warm(2);  // shrink: arms 2..5 untouched, nothing may be counted
  EXPECT_EQ(ws.reallocations(), settled);
  warm(6);  // re-grow to a warm size: still free
  EXPECT_EQ(ws.reallocations(), settled);
  warm(8);  // genuinely new arms must be counted
  EXPECT_GT(ws.reallocations(), settled);
  warm(8);
  const u64 settled8 = ws.reallocations();
  warm(8);
  EXPECT_EQ(ws.reallocations(), settled8);
}

/// Frontier over every stride-th owned vertex, values distinct per vertex.
std::vector<VecEntry> owned_frontier(const DistSpVec& shape, index_t n,
                                     index_t stride) {
  std::vector<VecEntry> mine;
  for (index_t v = 0; v < n; v += stride) {
    if (v >= shape.lo() && v < shape.hi()) mine.push_back(VecEntry{v, n - v});
  }
  return mine;
}

class WorkspaceGrids : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Grids, WorkspaceGrids, ::testing::Values(1, 4));

TEST_P(WorkspaceGrids, TwoMatrixSizesAlternateWithoutCrossContamination) {
  // The hazard the workspace object fixes: under the thread_local SPA, a
  // big matrix inflated the shared buffer and a small matrix reused it
  // blind. Alternate SpMSpV calls of two differently-sized matrices
  // through ONE shared workspace and demand bit-identical results to
  // calls made with a fresh workspace each time.
  const int p = GetParam();
  const auto big = gen::grid3d(6, 5, 5);   // n = 150
  const auto small = gen::path(37);        // n = 37
  for (const int threads : {1, 3}) {  // flat and hybrid share the arms
    for (const auto acc :
         {SpmspvAccumulator::kSpa, SpmspvAccumulator::kSortMerge}) {
      Runtime::run(p, [&](Comm& world) {
        ProcGrid2D grid(world);
        DistSpMat mat_big(grid, big);
        DistSpMat mat_small(grid, small);
        DistSpVec x_big(mat_big.vec_dist(), grid);
        DistSpVec x_small(mat_small.vec_dist(), grid);
        DistWorkspace shared;
        for (int round = 0; round < 4; ++round) {
          x_big.assign(owned_frontier(x_big, big.n(), 2 + round));
          x_small.assign(owned_frontier(x_small, small.n(), 1 + round));
          for (bool use_big : {true, false, true}) {
            const auto& mat = use_big ? mat_big : mat_small;
            const auto& x = use_big ? x_big : x_small;
            const auto got = spmspv_select2nd_min(mat, x, grid, acc, &shared);
            DistWorkspace fresh;
            const auto want = spmspv_select2nd_min(mat, x, grid, acc, &fresh);
            ASSERT_EQ(got.entries(), want.entries())
                << "p=" << p << " threads=" << threads << " round=" << round
                << " big=" << use_big;
          }
        }
      }, {}, threads);
    }
  }
}

TEST_P(WorkspaceGrids, SteadyStateLevelsStopAllocatingAfterWarmup) {
  // One full BFS (every level shape the matrix can produce) warms every
  // buffer; a second identical traversal must not grow anything. Run flat
  // and hybrid: the per-thread arms must settle like every other buffer.
  const int p = GetParam();
  const auto a = gen::relabel_random(gen::grid2d(14, 14), 3);
  for (const int threads : {1, 6}) {
    Runtime::run(p, [&](Comm& world) {
      ProcGrid2D grid(world);
      DistSpMat mat(grid, a);
      const auto degrees = mat.degrees(grid);
      const auto run_both = [&] {
        DistDenseVec levels(mat.vec_dist(), grid, kNoVertex);
        rcm::dist_bfs(mat, 0, levels, grid, mps::Phase::kPeripheralSpmspv,
                      mps::Phase::kPeripheralOther);
        DistDenseVec labels(mat.vec_dist(), grid, kNoVertex);
        rcm::dist_cm_component(mat, degrees, labels, 0, 0, grid);
      };
      run_both();
      run_both();  // hybrid emit capacities can still be observed growing
      const u64 warm = grid.workspace().reallocations();
      EXPECT_GT(warm, 0u);
      run_both();
      run_both();
      EXPECT_EQ(grid.workspace().reallocations(), warm)
          << "steady-state BFS levels must reuse workspace buffers"
          << " (threads=" << threads << ")";
    }, {}, threads);
  }
}

TEST(Workspace, RouteBuffersKeepCapacityAcrossCheckouts) {
  DistWorkspace ws;
  auto& route = ws.entry_route(4);
  route[2].assign(100, VecEntry{0, 0});
  const auto cap = route[2].capacity();
  auto& again = ws.entry_route(4);
  EXPECT_EQ(&again, &route);
  EXPECT_TRUE(again[2].empty());
  EXPECT_EQ(again[2].capacity(), cap);
}

TEST(Workspace, ReallocationCounterSettles) {
  DistWorkspace ws;
  for (int i = 0; i < 3; ++i) {
    auto& s = ws.frontier_scratch();
    s.assign(64, VecEntry{1, 1});
    ws.index_scratch(128);
    ws.spa(256);
  }
  const u64 settled = ws.reallocations();
  for (int i = 0; i < 5; ++i) {
    auto& s = ws.frontier_scratch();
    s.assign(64, VecEntry{1, 1});
    ws.index_scratch(128);
    ws.spa(256);
  }
  EXPECT_EQ(ws.reallocations(), settled);
}

}  // namespace
}  // namespace drcm::dist
