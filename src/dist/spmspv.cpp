#include "dist/spmspv.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>

namespace drcm::dist {

namespace {

/// Contiguous stripe [lo, hi) of [0, n) owned by team member `t` of
/// `parts`. Pure arithmetic on (n, parts, t): the partition — and with it
/// the hybrid output — does not depend on scheduling.
struct Stripe {
  std::size_t lo;
  std::size_t hi;
};

Stripe stripe_of(std::size_t n, int parts, int t) {
  const auto p = static_cast<std::size_t>(parts);
  const auto i = static_cast<std::size_t>(t);
  return Stripe{n * i / p, n * (i + 1) / p};
}

/// Stage 2, kSpa: accumulate minima in the workspace's dense stamped SPA,
/// emit ascending (output-sensitive) into `out` (GLOBAL rows).
void multiply_spa(const DistSpMat& a, std::span<const VecEntry> frontier,
                  DistWorkspace& ws, std::vector<VecEntry>& out,
                  double* work) {
  auto& spa = ws.spa(static_cast<std::size_t>(a.local_rows()));
  double edges = 0;
  for (const auto& e : frontier) {
    const auto col = a.column(e.idx - a.col_lo());
    edges += static_cast<double>(col.size());
    for (const index_t lr : col) {
      spa.put_min(static_cast<std::size_t>(lr), e.val);
    }
  }
  spa.emit_ascending([&](std::size_t s, index_t v) {
    out.push_back(VecEntry{a.row_lo() + static_cast<index_t>(s), v});
  });
  *work = edges + static_cast<double>(out.size());
}

/// The k-way heap merge of the sorted column lists of `frontier` with
/// min-combine on duplicate rows, appended to `out` (GLOBAL rows,
/// ascending). Shared by the serial kSortMerge arm (whole frontier, the
/// workspace's cursor/heap arrays) and each hybrid stripe (its frontier
/// slice, its own ThreadStripe arrays). Returns the edge count; the caller
/// reads the heap width (`cursors.size()`) for the work formula.
double sort_merge_into(const DistSpMat& a, std::span<const VecEntry> frontier,
                       std::vector<MergeCursor>& cursors,
                       std::vector<std::pair<index_t, std::size_t>>& heap,
                       std::vector<VecEntry>& out) {
  double edges = 0;
  for (const auto& e : frontier) {
    const auto col = a.column(e.idx - a.col_lo());
    edges += static_cast<double>(col.size());
    if (!col.empty()) cursors.push_back(MergeCursor{col, 0, e.val});
  }
  using HeapItem = std::pair<index_t, std::size_t>;  // (local row, cursor)
  const auto heap_greater = [](const HeapItem& x, const HeapItem& y) {
    return x > y;
  };
  for (std::size_t k = 0; k < cursors.size(); ++k) {
    heap.emplace_back(cursors[k].rows[0], k);
  }
  std::make_heap(heap.begin(), heap.end(), heap_greater);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_greater);
    const auto [lr, k] = heap.back();
    heap.pop_back();
    const index_t g = a.row_lo() + lr;
    if (!out.empty() && out.back().idx == g) {
      out.back().val = std::min(out.back().val, cursors[k].val);
    } else {
      out.push_back(VecEntry{g, cursors[k].val});
    }
    if (++cursors[k].pos < cursors[k].rows.size()) {
      heap.emplace_back(cursors[k].rows[cursors[k].pos], k);
      std::push_heap(heap.begin(), heap.end(), heap_greater);
    }
  }
  return edges;
}

/// Stage 2, kSortMerge: the heap merge over the whole frontier. No dense
/// state; cursor and heap arrays come from the workspace.
void multiply_sort_merge(const DistSpMat& a, std::span<const VecEntry> frontier,
                         DistWorkspace& ws, std::vector<VecEntry>& out,
                         double* work) {
  auto& cursors = ws.cursors();
  const double edges =
      sort_merge_into(a, frontier, cursors, ws.heap_storage(), out);
  const double logk =
      cursors.empty() ? 1.0 : std::log2(static_cast<double>(cursors.size()) + 1);
  *work = edges * (1.0 + logk);
}

/// Min-merges the ascending, duplicate-free `emit` runs of `runs`,
/// restricted to indices in [lo, hi), onto `out`. One probe per run head
/// per round: the scan that finds the minimum index min-combines its value
/// (in run order, so the output does not depend on how the runs split the
/// rows) and collects the runs holding it in `winners`; only those
/// advance. Merging E distinct rows costs exactly (E + 1) * runs.size()
/// probes (the last round finds every head exhausted), which it returns.
u64 merge_runs(std::span<const ThreadStripe> runs, index_t lo, index_t hi,
               std::vector<index_t>& heads, std::vector<index_t>& winners,
               std::vector<VecEntry>& out) {
  heads.clear();
  for (const auto& run : runs) {
    const auto first = std::lower_bound(
        run.emit.begin(), run.emit.end(), lo,
        [](const VecEntry& e, index_t g) { return e.idx < g; });
    heads.push_back(static_cast<index_t>(first - run.emit.begin()));
  }
  u64 probes = 0;
  while (true) {
    winners.clear();
    index_t best = 0;
    index_t val = 0;
    for (std::size_t m = 0; m < runs.size(); ++m) {
      const auto& emit = runs[m].emit;
      const auto at = static_cast<std::size_t>(heads[m]);
      ++probes;
      if (at >= emit.size() || emit[at].idx >= hi) continue;
      if (winners.empty() || emit[at].idx < best) {
        best = emit[at].idx;
        val = emit[at].val;
        winners.clear();
        winners.push_back(static_cast<index_t>(m));
      } else if (emit[at].idx == best) {
        val = std::min(val, emit[at].val);
        winners.push_back(static_cast<index_t>(m));
      }
    }
    if (winners.empty()) break;
    for (const index_t m : winners) ++heads[static_cast<std::size_t>(m)];
    out.push_back(VecEntry{best, val});
  }
  return probes;
}

/// Hybrid kSpa (paper Fig. 6, the node-level parallel SpMSpV): the frontier
/// loop splits into contiguous stripes, one per OpenMP thread, each
/// accumulating into its own stamped SPA and emitting it as an ascending
/// run (output-sensitive, as in the serial arm). After the team barrier
/// every thread min-merges a contiguous ROW stripe of all runs, and the
/// thread-order concatenation reproduces the serial arm's ascending
/// emission bit for bit (min is associative and commutative, so the
/// frontier partition is invisible in the output). Both phases run in
/// parallel and cost O(touched) on sparse levels.
void multiply_spa_hybrid(const DistSpMat& a, std::span<const VecEntry> frontier,
                         int threads, DistWorkspace& ws,
                         std::vector<VecEntry>& out, double* work) {
  const auto rows = static_cast<std::size_t>(a.local_rows());
  const auto spas = ws.thread_spas(static_cast<std::size_t>(threads), rows);
  const auto stripes = ws.thread_stripes(static_cast<std::size_t>(threads));
  double edges = 0;
#pragma omp parallel num_threads(threads) reduction(+ : edges)
  {
    // The runtime may grant fewer threads than requested: partition by the
    // actual team size (the result does not depend on it).
    const int team = omp_get_num_threads();
    const int t = omp_get_thread_num();
    auto& mine = stripes[static_cast<std::size_t>(t)];
    auto& spa = spas[static_cast<std::size_t>(t)];
    const auto f = stripe_of(frontier.size(), team, t);
    for (std::size_t i = f.lo; i < f.hi; ++i) {
      const auto& e = frontier[i];
      const auto col = a.column(e.idx - a.col_lo());
      edges += static_cast<double>(col.size());
      for (const index_t lr : col) {
        spa.put_min(static_cast<std::size_t>(lr), e.val);
      }
    }
    spa.emit_ascending([&](std::size_t s, index_t v) {
      mine.emit.push_back(VecEntry{a.row_lo() + static_cast<index_t>(s), v});
    });
#pragma omp barrier
    const auto r = stripe_of(rows, team, t);
    merge_runs(stripes.first(static_cast<std::size_t>(team)),
               a.row_lo() + static_cast<index_t>(r.lo),
               a.row_lo() + static_cast<index_t>(r.hi), mine.heads,
               mine.winners, mine.merged);
  }
  for (const auto& stripe : stripes) {
    out.insert(out.end(), stripe.merged.begin(), stripe.merged.end());
  }
  // Charged as the serial loop's work: same edges, same emitted rows. The
  // per-run merge probes are the price of the reduction, paid in wall time
  // only; the Comm divides these modeled units by the thread count.
  *work = edges + static_cast<double>(out.size());
}

/// Hybrid kSortMerge: each thread heap-merges its contiguous frontier
/// stripe into its own sorted emission, then the calling thread min-merges
/// the (ascending, duplicate-free) per-stripe emissions in index order — a
/// row's minimum over stripes equals the serial heap's minimum over all
/// columns, so the output is bit-identical to the serial arm.
void multiply_sort_merge_hybrid(const DistSpMat& a,
                                std::span<const VecEntry> frontier,
                                int threads, DistWorkspace& ws,
                                std::vector<VecEntry>& out, double* work) {
  const auto stripes = ws.thread_stripes(static_cast<std::size_t>(threads));
  double edges = 0;
  double heap_width = 0;
#pragma omp parallel num_threads(threads) reduction(+ : edges, heap_width)
  {
    const int team = omp_get_num_threads();
    const int t = omp_get_thread_num();
    auto& mine = stripes[static_cast<std::size_t>(t)];
    const auto f = stripe_of(frontier.size(), team, t);
    edges += sort_merge_into(a, frontier.subspan(f.lo, f.hi - f.lo),
                             mine.cursors, mine.heap, mine.emit);
    heap_width += static_cast<double>(mine.cursors.size());
  }
  // The merge runs on the calling thread, through stripe 0's (otherwise
  // unused) head and winner lists.
  ws.count_merge_probes(merge_runs(
      stripes, 0, std::numeric_limits<index_t>::max(), stripes[0].heads,
      stripes[0].winners, out));
  // The serial formula over the partition-invariant totals: the number of
  // nonempty frontier columns does not depend on how stripes cut them.
  const double logk = heap_width == 0 ? 1.0 : std::log2(heap_width + 1.0);
  *work = edges * (1.0 + logk);
}

/// The DRCM_SPMSPV_ACC override, re-read per call so tests and benches can
/// flip it between runs (a getenv per BFS level, not per edge). Returns
/// kAuto when unset or "auto".
SpmspvAccumulator env_accumulator() {
  if (const char* env = std::getenv("DRCM_SPMSPV_ACC")) {
    const std::string_view v(env);
    if (v == "spa") return SpmspvAccumulator::kSpa;
    if (v == "sortmerge") return SpmspvAccumulator::kSortMerge;
    DRCM_CHECK(v.empty() || v == "auto",
               "DRCM_SPMSPV_ACC must be spa, sortmerge or auto");
  }
  return SpmspvAccumulator::kAuto;
}

}  // namespace

SpmspvAccumulator resolve_accumulator(SpmspvAccumulator requested) {
  if (requested != SpmspvAccumulator::kAuto) return requested;
  if (const auto pinned = env_accumulator(); pinned != SpmspvAccumulator::kAuto) {
    return pinned;
  }
  // With output-sensitive emission the SPA costs O(edges + touched) on
  // sparse levels and O(edges + rows) only where the rows are mostly
  // touched anyway, so it matches or beats the heap merge's
  // O(edges log k) on every level shape.
  return SpmspvAccumulator::kSpa;
}

std::vector<VecEntry>& spmspv_local_multiply(const DistSpMat& a,
                                             std::span<const VecEntry> frontier,
                                             SpmspvAccumulator acc,
                                             DistWorkspace& ws, double* work,
                                             SpmspvAccumulator* used,
                                             int threads) {
  DRCM_CHECK(threads >= 1, "local multiply needs at least one thread");
  // Receive-path range check (always on): the gathered frontier arrived
  // over the wire and every arm below turns e.idx into a local column
  // access, so a corrupted index must stop here as a CheckError.
  for (const auto& e : frontier) {
    DRCM_CHECK(e.idx >= a.col_lo() && e.idx < a.col_hi(),
               "received frontier index outside the local column chunk");
  }
  acc = resolve_accumulator(acc);
  if (used) *used = acc;
  auto& out = ws.partial_scratch();
  if (acc == SpmspvAccumulator::kSpa) {
    if (threads > 1) {
      multiply_spa_hybrid(a, frontier, threads, ws, out, work);
    } else {
      multiply_spa(a, frontier, ws, out, work);
    }
  } else {
    if (threads > 1) {
      multiply_sort_merge_hybrid(a, frontier, threads, ws, out, work);
    } else {
      multiply_sort_merge(a, frontier, ws, out, work);
    }
  }
  return out;
}

DistSpVec spmspv_select2nd_min(const DistSpMat& a, const DistSpVec& x,
                               ProcGrid2D& grid, SpmspvAccumulator acc,
                               DistWorkspace* ws, SpmspvAccumulator* used) {
  DRCM_CHECK(x.dist() == a.vec_dist(),
             "frontier distribution does not match the matrix");
  auto& world = grid.world();
  DistWorkspace& w = ws ? *ws : grid.workspace();
  const auto& dist = a.vec_dist();
  const int q = grid.q();

  // Stage 1: my block needs the frontier entries of my whole column chunk,
  // which lives sub-chunk by sub-chunk on my processor column. Members are
  // ranked by grid row, so the concatenation arrives index-sorted.
  const auto frontier =
      grid.col_comm().allgatherv(std::span<const VecEntry>(x.entries()));

  // Stage 2: local block multiply into per-row partial minima, split
  // across the rank's hybrid OpenMP team (communication stays on this
  // thread, as in the paper's one-communicating-thread design).
  double work = 0;
  const auto& partial = spmspv_local_multiply(a, frontier, acc, w, &work, used,
                                              world.threads());

  // Stage 3a: my partial rows live in row chunk R = grid.row(); the rank
  // in my processor row at column s merges sub-chunk s of that chunk.
  auto& to_merge = w.merge_route(static_cast<std::size_t>(q));
  {
    int s = 0;
    for (const auto& e : partial) {
      while (e.idx >= dist.sub_lo(grid.row(), s + 1)) ++s;
      to_merge[static_cast<std::size_t>(s)].push_back(e);
    }
  }
  const auto received = grid.row_comm().alltoallv(to_merge);

  // Stage 3b: min-merge the q partial lists over my merge sub-range
  // (sub-chunk grid.col() of chunk grid.row()) with the stamped slot array.
  const index_t m_lo = dist.sub_lo(grid.row(), grid.col());
  const index_t m_hi = dist.sub_lo(grid.row(), grid.col() + 1);
  auto& slots = w.merge_slots(static_cast<std::size_t>(m_hi - m_lo));
  for (const auto& e : received) {
    // Receive-path range check (always on): a corrupted index must stop
    // here as a CheckError, not as an out-of-bounds slot write.
    DRCM_CHECK(e.idx >= m_lo && e.idx < m_hi, "partial routed to wrong rank");
    slots.put_min(static_cast<std::size_t>(e.idx - m_lo), e.val);
  }
  std::vector<VecEntry> merged;
  slots.emit_ascending([&](std::size_t s, index_t v) {
    merged.push_back(VecEntry{m_lo + static_cast<index_t>(s), v});
  });
  work += static_cast<double>(partial.size() + received.size() +
                              merged.size());
  world.charge_compute(work);

  // Stage 3c: the merge range I hold is owned by my transpose partner (and
  // vice versa) — one simultaneous pairwise exchange realigns everything.
  auto mine = world.pairwise_exchange(grid.transpose_partner(),
                                      std::span<const VecEntry>(merged));
  DistSpVec y(dist, grid);
  y.assign(std::move(mine));
  return y;
}

}  // namespace drcm::dist
