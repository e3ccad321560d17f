// Per-rank scratch memory for the distributed kernels.
//
// The SpMSpV accumulators, the SORTPERM routing passes and the fused level
// kernel all need O(local_rows) / O(frontier) scratch every call. Before
// this object existed the SPA lived in a `thread_local` inside spmspv.cpp:
// invisible to callers, sized by whichever matrix touched it last, leaked
// across Runtime::run invocations on reused threads, and impossible to
// share with the sort-merge arm's cursor arrays. A DistWorkspace is owned
// per rank (ProcGrid2D carries one; callers may pass their own), so the
// scoping is explicit and two matrices of different dimensions on one rank
// can alternate kernels through it safely:
//
//   * StampedSlots buffers never need clearing — a slot is live only when
//     its stamp equals the epoch opened by the current call, so a small
//     matrix reusing a buffer grown by a big one reads no stale state;
//   * plain scratch vectors are cleared (not shrunk) on checkout, so
//     steady-state BFS levels run scratch-allocation-free after warm-up
//     (result vectors handed to the caller are the only per-level
//     allocations left);
//   * every capacity growth is counted, which is how the workspace tests
//     pin the "no reallocation after warm-up" property.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dist/vec_entry.hpp"

namespace drcm::dist {

/// Sorted-emission crossover of StampedSlots::emit_ascending: the touched
/// list is sorted and walked while it holds fewer than 1/kSortedEmissionRatio
/// of the epoch's slot range, and the range is scanned densely otherwise.
/// Measured, not tuned per call (4-vCPU Xeon VM, g++ 12 -O2): sorting t
/// random slot ids plus emitting costs ~10-50 ns per id (the log factor
/// grows with t), a stamp-check scan ~1.3 ns per slot, so the two meet
/// near t = range/16..range/32 for ranges of 7.5k-120k slots. order_deep's levels (~100-vertex frontiers on
/// 7.5k-30k-slot ranges, t/range <= 0.02) take the sorted path; the bulk
/// levels of order_wide (t/range well above 0.1) keep the dense scan.
inline constexpr std::size_t kSortedEmissionRatio = 32;

/// Dense accumulator array with timestamp reset: slot s holds a valid value
/// only when stamp[s] equals the epoch of the latest begin(). Consecutive
/// uses pay O(touched), not O(size) clearing, and a use over a smaller
/// range than the last one cannot observe the previous caller's values.
///
/// Every slot's first put_min of an epoch is recorded in `touched` while
/// the list is short (sorted()), which makes emission OUTPUT-SENSITIVE:
/// emit_ascending costs O(t log t) for t touched slots on sparse levels
/// instead of an O(range) scan. Recording stops once the list reaches the
/// crossover, since the dense scan will then run anyway; this also caps
/// the list at range / kSortedEmissionRatio entries.
struct StampedSlots {
  std::vector<index_t> val;
  std::vector<u64> stamp;
  /// Slots written in the current epoch, each once, in first-touch order
  /// (ascending after a sorted emit_ascending). Complete only while
  /// sorted() holds.
  std::vector<index_t> touched;
  u64 epoch = 0;
  /// Slot range [0, range) opened by the latest begin().
  std::size_t range = 0;
  /// `touched` capacity seen at the latest begin(): growth performed by
  /// put_min is reported at the next begin().
  std::size_t touched_cap = 0;

  /// Opens a fresh epoch over `n` slots; returns true if storage grew
  /// (including touched-list growth during the previous epoch).
  bool begin(std::size_t n) {
    ++epoch;
    range = n;
    touched.clear();
    bool grew = touched.capacity() != touched_cap;
    touched_cap = touched.capacity();
    if (val.size() < n) {
      val.resize(n);
      stamp.resize(n, 0);
      grew = true;
    }
    return grew;
  }

  bool live(std::size_t s) const { return stamp[s] == epoch; }

  /// True while `touched` lists every live slot and is short enough for
  /// emit_ascending to sort it.
  bool sorted() const {
    return touched.size() * kSortedEmissionRatio < range;
  }

  /// Min-combines `v` into slot s (first write wins unconditionally).
  void put_min(std::size_t s, index_t v) {
    if (stamp[s] != epoch) {
      stamp[s] = epoch;
      val[s] = v;
      if (sorted()) touched.push_back(static_cast<index_t>(s));
    } else if (v < val[s]) {
      val[s] = v;
    }
  }

  /// Calls emit(s, val[s]) for every live slot, once each, in ascending
  /// slot order: the one emission routine of the distributed kernels. A
  /// short touched list (next to the range, see kSortedEmissionRatio) is
  /// sorted in place and walked; otherwise the range is scanned densely.
  /// Both paths emit the same sequence.
  template <class Emit>
  void emit_ascending(Emit&& emit) {
    if (sorted()) {
      std::sort(touched.begin(), touched.end());
      for (const index_t s : touched) {
        emit(static_cast<std::size_t>(s), val[static_cast<std::size_t>(s)]);
      }
    } else {
      for (std::size_t s = 0; s < range; ++s) {
        if (stamp[s] == epoch) emit(s, val[s]);
      }
    }
  }
};

/// One column cursor of the kSortMerge heap: position `pos` in the sorted
/// local row list of a frontier column carrying value `val`.
struct MergeCursor {
  std::span<const index_t> rows;
  std::size_t pos;
  index_t val;
};

/// One SORTPERM element in flight: (parent bucket, degree, global index).
struct SortRec {
  index_t bucket;
  index_t degree;
  index_t idx;
};

/// Per-thread stage-2 stripe of the hybrid node-level SpMSpV: thread t of
/// the OpenMP team owns a contiguous slice of the gathered frontier and
/// turns it into an ascending, duplicate-free run in `emit` — by heap merge
/// through its own cursor/heap arrays (kSortMerge) or by the ascending
/// emission of its own stamped SPA (kSpa) — so no two threads ever share
/// mutable state. The runs are then min-merged in thread order, a
/// deterministic reduction that keeps the hybrid output bit-identical to
/// the serial loop at any thread count. The kSpa arm merges in parallel:
/// thread t min-merges ROW stripe t of every run into `merged`, through
/// its own run `heads` and `winners` lists.
struct ThreadStripe {
  std::vector<MergeCursor> cursors;
  std::vector<std::pair<index_t, std::size_t>> heap;
  std::vector<VecEntry> emit;
  std::vector<VecEntry> merged;
  std::vector<index_t> heads;
  std::vector<index_t> winners;
};

/// One cell of the sparse SORTPERM histogram: how many elements with parent
/// bucket `bucket` and degree `degree` live on the rank whose owned index
/// range sits at position `block` in global index order (block = col * q +
/// row). Because (bucket, degree, block) is a prefix-compatible refinement
/// of the final (bucket, degree, index) sort key, the exchanged cells let
/// every rank compute the EXACT global start position of every cell — which
/// is what splits oversized buckets across sort workers with no extra
/// offset-exchange round (the ROADMAP worker-stripe fix).
struct SortHistCell {
  index_t bucket;
  index_t degree;
  index_t block;
  index_t count;
};

class DistWorkspace {
 public:
  /// The SpMSpV stage-2 accumulator (kSpa arm), epoch opened over `rows`.
  StampedSlots& spa(std::size_t rows);
  /// The result-merge accumulator (SpMSpV stage 3b / fused owner merge),
  /// epoch opened over `n` slots.
  StampedSlots& merge_slots(std::size_t n);

  /// kSortMerge cursor array and heap storage, cleared.
  std::vector<MergeCursor>& cursors();
  std::vector<std::pair<index_t, std::size_t>>& heap_storage();

  /// Outgoing frontier buffer (the SET-refreshed entries a kernel
  /// publishes). Kept distinct from partial_scratch(): the published span
  /// must stay untouched while peers read it.
  std::vector<VecEntry>& frontier_scratch();
  /// Stage-2 output (per-row partial minima), cleared.
  std::vector<VecEntry>& partial_scratch();
  /// Gathered-frontier landing buffer, cleared.
  std::vector<VecEntry>& gather_scratch();
  /// Routed-exchange landing buffer, cleared.
  std::vector<VecEntry>& recv_scratch();
  /// Per-destination VecEntry routing buffers, sized to exactly `ranks`
  /// with each destination cleared (capacity retained). One table per call
  /// site, because the tables are sized to different communicators (the
  /// row merge to q, the owner routes to p) and a shared table would
  /// thrash its outer size between them:
  /// SpMSpV stage 3a (row communicator).
  std::vector<std::vector<VecEntry>>& merge_route(std::size_t ranks);
  /// SORTPERM position scatter-back (world).
  std::vector<std::vector<VecEntry>>& entry_route(std::size_t ranks);
  /// Fused level kernel owner routing (world).
  std::vector<std::vector<VecEntry>>& fused_route(std::size_t ranks);
  /// One-shot redistribution staging: the relabeled matrix triples routed
  /// to their 1D owners, and the rhs/solution slab elements alongside them.
  /// Persisting these in the workspace is what lets a serving layer's
  /// steady-state cache-hit request (fingerprint -> redistribute -> solve,
  /// no ordering) run with ZERO workspace reallocations — the realloc
  /// ledger extends across requests.
  std::vector<std::vector<MatEntryV>>& mat_route(std::size_t ranks);
  std::vector<std::vector<VecEntryD>>& vecd_route(std::size_t ranks);

  /// SORTPERM triple scratch (element array + counting-sort shadow),
  /// cleared, and its per-destination routing buffers.
  std::vector<SortRec>& sort_scratch();
  std::vector<SortRec>& sort_tmp();
  std::vector<std::vector<SortRec>>& sort_route(std::size_t ranks);

  /// SORTPERM histogram-cell scratch, cleared: the local (bucket, degree)
  /// cells (doubles as the fused collective's carry payload), the gathered
  /// global table landing buffer, and the two ping-pong arrays of the
  /// table's counting passes.
  std::vector<SortHistCell>& hist_cells();
  std::vector<SortHistCell>& hist_all();
  std::vector<SortHistCell>& hist_table();
  std::vector<SortHistCell>& hist_shadow();
  /// Packed-carry word streams of the fused ordering level: the local
  /// two-level-compacted histogram (sortperm_pack_cells) and the
  /// rank-concatenated allgather landing buffer it is decoded from.
  std::vector<index_t>& carry_words();
  std::vector<index_t>& carry_words_all();
  /// Local-histogram construction triples ((bucket, degree, entry ordinal)).
  std::vector<SortRec>& hist_recs();
  /// Per-cell global start positions of the sorted table, per-entry cell
  /// ordinals, and this rank's cell-start cursors (advanced by the deal
  /// loop as positions are handed out).
  std::vector<index_t>& hist_start();
  std::vector<index_t>& entry_cell();
  std::vector<index_t>& my_starts();
  /// Fused ordering-level landing buffers: dealt SortRec elements and the
  /// scattered (index, label) positions.
  std::vector<SortRec>& sort_recv_scratch();
  std::vector<VecEntry>& rank_recv_scratch();

  /// Per-thread SPA arms of the hybrid local multiply: `threads` stamped
  /// slot arrays, each epoch-opened over `rows` (so a thread cannot observe
  /// another thread's — or a previous call's — values). Growth of the arm
  /// count and of any arm's storage is realloc-counted; shrinking the
  /// thread count between calls retains the extra arms' storage and counts
  /// nothing, so a rank alternating hybrid and flat calls stays
  /// allocation-free after warm-up.
  std::span<StampedSlots> thread_spas(std::size_t threads, std::size_t rows);
  /// Per-thread stage-2 stripes, every buffer cleared with capacity
  /// retained; realloc accounting mirrors thread_spas. The kSortMerge arm
  /// uses cursors, heap and emit; the kSpa arm uses emit (its SPA's run)
  /// and merged / heads / winners (its row stripe of the parallel merge).
  std::span<ThreadStripe> thread_stripes(std::size_t threads);

  /// Plain index scratch of exactly `n` elements, contents unspecified
  /// (callers overwrite every slot they read).
  std::vector<index_t>& index_scratch(std::size_t n);

  /// Zero-filled counter array of exactly `bins` slots for the counting
  /// passes (degree/bucket/block bins can reach O(n) on degree-skewed
  /// levels, so the storage must be reused across levels, not allocated
  /// per pass). Each checkout re-zeroes, so sequential passes may share it
  /// — but a second checkout invalidates the first's contents.
  std::vector<index_t>& counters(std::size_t bins);

  /// Number of capacity growths observed across all buffers — the warm-up
  /// metric: steady-state reuse must leave this constant. Growth performed
  /// by a caller's push_backs is detected at the buffer's next checkout.
  u64 reallocations() const { return reallocations_; }

  /// Stripe-head probes performed by the hybrid kSortMerge min-merge since
  /// this workspace was constructed — the op-count ledger the single-probe
  /// merge is pinned on: emitting E distinct rows from S stripes costs
  /// exactly (E + 1) * S probes (every round reads each head once; the
  /// final round finds all heads exhausted).
  u64 merge_probes() const { return merge_probes_; }
  void count_merge_probes(u64 probes) { merge_probes_ += probes; }

 private:
  template <class V>
  V& checkout_cleared(V& v, std::size_t& last_cap) {
    if (v.capacity() != last_cap) {
      ++reallocations_;
      last_cap = v.capacity();
    }
    v.clear();
    return v;
  }

  template <class Route>
  Route& checkout_route(Route& route, std::size_t ranks,
                        std::size_t& last_cap) {
    route.resize(ranks);  // exact: collectives demand one buffer per rank
    std::size_t cap = route.capacity();
    for (auto& dest : route) {
      cap += dest.capacity();
      dest.clear();
    }
    if (cap != last_cap) {
      ++reallocations_;
      last_cap = cap;
    }
    return route;
  }

  StampedSlots spa_;
  StampedSlots merge_slots_;
  std::vector<MergeCursor> cursors_;
  std::vector<std::pair<index_t, std::size_t>> heap_;
  std::vector<VecEntry> frontier_;
  std::vector<VecEntry> partial_;
  std::vector<VecEntry> gather_;
  std::vector<VecEntry> recv_;
  std::vector<std::vector<VecEntry>> merge_route_;
  std::vector<std::vector<VecEntry>> entry_route_;
  std::vector<std::vector<VecEntry>> fused_route_;
  std::vector<std::vector<MatEntryV>> mat_route_;
  std::vector<std::vector<VecEntryD>> vecd_route_;
  std::vector<SortRec> sort_;
  std::vector<SortRec> sort_tmp_;
  std::vector<std::vector<SortRec>> sort_route_;
  std::vector<index_t> index_;
  std::vector<index_t> counters_;
  std::vector<SortHistCell> hist_cells_;
  std::vector<SortHistCell> hist_all_;
  std::vector<index_t> carry_words_;
  std::vector<index_t> carry_words_all_;
  std::vector<SortHistCell> hist_table_;
  std::vector<SortHistCell> hist_shadow_;
  std::vector<SortRec> hist_recs_;
  std::vector<index_t> hist_start_;
  std::vector<index_t> entry_cell_;
  std::vector<index_t> my_starts_;
  std::vector<SortRec> sort_recv_;
  std::vector<VecEntry> rank_recv_;
  std::vector<StampedSlots> thread_spas_;
  std::vector<ThreadStripe> thread_stripes_;
  /// Per-arm capacity ledgers of the thread stripes (sum of all their
  /// buffers), so shrinking and re-growing the thread count between calls
  /// is not misread as a reallocation.
  std::vector<std::size_t> thread_stripe_caps_;
  std::size_t cursors_cap_ = 0, heap_cap_ = 0, frontier_cap_ = 0,
              partial_cap_ = 0, gather_cap_ = 0, recv_cap_ = 0,
              merge_route_cap_ = 0, entry_route_cap_ = 0,
              fused_route_cap_ = 0, mat_route_cap_ = 0, vecd_route_cap_ = 0,
              sort_cap_ = 0, sort_tmp_cap_ = 0,
              sort_route_cap_ = 0, index_cap_ = 0, counters_cap_ = 0,
              hist_cells_cap_ = 0,
              hist_all_cap_ = 0, carry_words_cap_ = 0,
              carry_words_all_cap_ = 0, hist_table_cap_ = 0,
              hist_shadow_cap_ = 0,
              hist_recs_cap_ = 0, hist_start_cap_ = 0, entry_cell_cap_ = 0,
              my_starts_cap_ = 0, sort_recv_cap_ = 0,
              rank_recv_cap_ = 0;
  u64 reallocations_ = 0;
  u64 merge_probes_ = 0;
};

}  // namespace drcm::dist
