// The (select2nd, min) SpMSpV: one BFS/ordering expansion step (paper
// Algorithm 2). y[i] = min over frontier entries (j, v) with A(i, j) != 0
// of v — children adopt the minimum parent value.
//
// Three bulk-synchronous stages on the 2D grid:
//   1. gather the frontier chunk along my processor column (allgatherv),
//   2. multiply my block locally into per-row partial minima,
//   3. merge partials along my processor row (alltoallv by sub-chunk) and
//      hand the merged sub-chunk to its true owner via the transpose
//      pairwise exchange.
//
// This is the unfused kernel: three collectives (three barrier crossings)
// per call, plus the caller's SET / SELECT / emptiness round trips. The
// fused per-level path (dist/level_kernel.hpp) performs the same math in
// one three-crossing collective and is what the BFS loops actually run;
// this entry point remains the primitive-chain reference the equivalence
// tests compare against.
#pragma once

#include "dist/dist_matrix.hpp"
#include "dist/dist_vector.hpp"
#include "dist/workspace.hpp"

namespace drcm::dist {

/// Local accumulation policy of stage 2 — the kernel-design tradeoff
/// bench/micro_spmspv.cpp measures.
enum class SpmspvAccumulator {
  /// Dense sparse accumulator: O(local_rows) array with timestamp reset
  /// (no clearing between calls). Emission is output-sensitive
  /// (StampedSlots::emit_ascending): sparse levels sort the touched rows,
  /// dense levels scan the row range. Measured faster than the heap merge
  /// on both the deep (~100-vertex frontiers) and the wide (bulk)
  /// perfbench ordering workloads.
  kSpa,
  /// Heap merge of the (already sorted) column row lists. No dense state,
  /// but pays a log(k) comparison factor per edge. Kept as a pinned arm:
  /// it is the paper's reference accumulator.
  kSortMerge,
  /// Resolves to kSpa, unless the DRCM_SPMSPV_ACC environment variable
  /// ("spa" / "sortmerge" / "auto") pins an arm, so benches can switch
  /// arms without recompiling.
  kAuto,
};

/// Resolves kAuto to a concrete arm: the DRCM_SPMSPV_ACC override when set,
/// kSpa otherwise. Returns kSpa or kSortMerge; non-kAuto requests pass
/// through unchanged.
SpmspvAccumulator resolve_accumulator(SpmspvAccumulator requested);

/// Stage 2 alone: multiplies my block by the (index-sorted) gathered
/// frontier into per-row partial minima with GLOBAL row indices, ascending.
/// Returns workspace-owned scratch valid until the next workspace checkout;
/// `*work` receives the work units to charge. `used` (optional) reports the
/// arm chosen after kAuto resolution. Shared by the unfused kernel below
/// and the fused level kernel.
///
/// `threads` > 1 selects the hybrid node-level path (paper Fig. 6): the
/// frontier loop OpenMP-splits into contiguous stripes over per-thread
/// workspace arms — stamped SPAs for kSpa, cursor/heap stripes for
/// kSortMerge — and the per-thread emissions are min-merged in a
/// deterministic order, so the output is BIT-IDENTICAL to the serial loop
/// at any thread count. The charged work units are the serial loop's: they
/// are computed from edges and emitted rows, which do not depend on the
/// thread partition; the caller's Comm divides modeled seconds by its
/// thread count.
std::vector<VecEntry>& spmspv_local_multiply(const DistSpMat& a,
                                             std::span<const VecEntry> frontier,
                                             SpmspvAccumulator acc,
                                             DistWorkspace& ws, double* work,
                                             SpmspvAccumulator* used = nullptr,
                                             int threads = 1);

/// Collective. `x` must be distributed conformally with `a`
/// (x.dist() == a.vec_dist(); throws CheckError otherwise). Scratch comes
/// from `ws`, or from the grid's per-rank workspace when `ws` is null.
/// `used` (optional) reports the arm chosen after kAuto resolution. The
/// local multiply runs on grid.world().threads() OpenMP threads (the
/// Runtime::run threads_per_rank of the hybrid configuration).
DistSpVec spmspv_select2nd_min(
    const DistSpMat& a, const DistSpVec& x, ProcGrid2D& grid,
    SpmspvAccumulator acc = SpmspvAccumulator::kSpa,
    DistWorkspace* ws = nullptr, SpmspvAccumulator* used = nullptr);

}  // namespace drcm::dist
