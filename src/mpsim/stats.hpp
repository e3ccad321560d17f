// Per-rank, per-phase accounting of wall time, modeled time and
// communication volume.
//
// The paper's Figure 4 splits total runtime into five components
// (Peripheral/Ordering x SpMSpV/Sorting/Other) and Figure 5 splits SpMSpV
// into computation vs communication. Every Comm operation and every
// charge_compute() call is attributed to the phase currently set on the
// Comm, so those breakdowns fall directly out of the recorder.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "mpsim/cost_model.hpp"

namespace drcm::mps {

/// Execution phases matching the paper's Figure 4/5 breakdown, plus
/// general-purpose buckets for other workloads built on the runtime.
enum class Phase : int {
  kPeripheralSpmspv = 0,
  kPeripheralOther,
  kOrderingSpmspv,
  kOrderingSort,
  kOrderingOther,
  kSolver,
  kRedistribute,
  kOther,
};

inline constexpr int kNumPhases = static_cast<int>(Phase::kOther) + 1;

std::string_view phase_name(Phase p);

/// Accumulated costs of one phase on one rank.
struct PhaseTotals {
  double wall_seconds = 0.0;        ///< measured wall-clock time
  double model_compute_seconds = 0.0;
  double model_comm_seconds = 0.0;
  double compute_units = 0.0;       ///< raw work units charged
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  /// Collectives entered: one per Comm collective call (a fused level
  /// kernel counts once). The paper's latency count, independent of how
  /// the simulator synchronizes.
  std::uint64_t collectives = 0;
  /// The simulator's synchronization count: barrier crossings of the
  /// publication-board protocol. Every plain collective is one crossing,
  /// split two, the fused level collective three and the fused ordering
  /// level five (BFS level + SORTPERM + label scatter together). The
  /// latency budget the fused kernels exist to shrink.
  std::uint64_t barrier_crossings = 0;

  double model_total() const { return model_compute_seconds + model_comm_seconds; }

  PhaseTotals& operator+=(const PhaseTotals& o);
};

/// Per-rank recorder. Not thread-safe by design: each rank owns its own.
class StatsRecorder {
 public:
  void add_comm(Phase phase, const CommCost& cost);
  void add_compute(Phase phase, double units, double modeled_seconds);
  void add_wall(Phase phase, double seconds);
  void add_collective(Phase phase);
  void add_crossing(Phase phase);

  /// Records that this rank currently holds `elements` scalar slots of
  /// distributed-pipeline state (matrix blocks, in-flight exchange buffers,
  /// solver row blocks); the recorder keeps the high-water mark. This is
  /// the ledger the no-gather pipeline's O(nnz/p + n/p) scalability
  /// contract is asserted on: a stage that materializes the full matrix or
  /// a replicated O(n) vector on one rank shows up here as an O(nnz) or
  /// O(n) peak.
  void note_resident(std::uint64_t elements);
  std::uint64_t peak_resident_elements() const { return peak_resident_; }

  const PhaseTotals& phase(Phase p) const {
    return totals_[static_cast<int>(p)];
  }
  PhaseTotals total() const;

  /// Folds another recorder into this one: phase totals add, the resident
  /// high-water mark takes the max. This is how the reordering service
  /// folds each request's ledger into its lane rank's running totals and
  /// abandoned launches into its cumulative report — a relaunch's cost is
  /// real cost, so recovery reports the sum over attempts.
  void merge_from(const StatsRecorder& other);

  void reset();

 private:
  std::array<PhaseTotals, kNumPhases> totals_{};
  std::uint64_t peak_resident_ = 0;
};

/// Cross-rank aggregate: bulk-synchronous phases run at the speed of the
/// slowest rank, so modeled per-phase times aggregate with max().
struct PhaseAggregate {
  PhaseTotals max;   ///< element-wise max over ranks
  PhaseTotals mean;  ///< element-wise mean over ranks
};

/// Barrier crossings charged to the five ordering-computation phases
/// (Peripheral/Ordering x SpMSpV/Sort/Other) — the work an ordering cache
/// hit skips entirely. The serving layer asserts this is exactly zero on a
/// hit: the request went straight to redistribution without a single BFS,
/// SORTPERM, or label collective.
std::uint64_t ordering_crossings(const StatsRecorder& stats);

/// Wall seconds charged to the same five phases: the cost an ordering
/// cache entry remembers for cost/recency eviction.
double ordering_wall(const StatsRecorder& stats);

}  // namespace drcm::mps
