// The complete distributed RCM pipeline: the library's primary public API.
//
// Composition (paper Secs. III-IV):
//   1. optional load-balancing random symmetric permutation of the input
//      (paper Sec. IV-A: "we randomly permute the input matrix A before
//      running the RCM algorithm");
//   2. 2D decomposition of the matrix onto the process grid;
//   3. per component: seed (unvisited min-degree vertex) -> distributed
//      pseudo-peripheral search (Algorithm 4) -> distributed CM labeling
//      (Algorithm 3);
//   4. reversal of the full labeling ("return R in reverse order");
//   5. composition back through the load-balancing permutation, so callers
//      always receive labels of the ORIGINAL matrix.
//
// Determinism: for fixed options the result is bit-identical to
// order::rcm_serial on every grid size; with load balancing enabled it is
// bit-identical to rcm_serial applied to the relabeled matrix, mapped back.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpsim/runtime.hpp"
#include "rcm/dist_rcm.hpp"
#include "rcm/ordering.hpp"
#include "solver/cg.hpp"
#include "sparse/csr.hpp"

namespace drcm::rcm {

struct DistRcmOptions {
  /// Which ordering algorithm to run, and with which pseudo-peripheral
  /// iteration (rcm/ordering.hpp). dist_order dispatches on this;
  /// dist_rcm, true to its name, always runs RCM but honors the
  /// peripheral_mode. kAuto resolves deterministically from per-matrix
  /// proxies before any collective launches.
  OrderingSpec ordering{};
  /// Apply the load-balancing random relabeling before decomposing.
  bool load_balance = false;
  /// Seed of the load-balancing permutation.
  u64 seed = 0x5eed;
  /// Which SORTPERM ranks the levels (bucket = the paper's algorithm).
  SortKind sort = SortKind::kBucket;
  /// SpMSpV accumulator arm for every BFS level (kAuto = the SPA;
  /// DRCM_SPMSPV_ACC overrides). All arms produce
  /// bit-identical orderings — this is a performance knob.
  dist::SpmspvAccumulator accumulator = dist::SpmspvAccumulator::kAuto;
  /// Run each ordering level through the fused dist::cm_level_step
  /// collective (five barrier crossings per level) instead of the reference
  /// bfs_level_step + sortperm chain (nine). Bucket sort only; both arms
  /// are bit-identical — this is a synchrony knob kept for the equivalence
  /// suite and the crossing-ledger benches.
  bool fuse_ordering = true;
  /// OpenMP threads per rank of the hybrid configuration (paper Fig. 6:
  /// one communicating thread per process, the others splitting the local
  /// SpMSpV). 0 resolves through the DRCM_THREADS environment variable,
  /// defaulting to 1 (flat MPI). Consumed by run_dist_rcm when launching
  /// the runtime; a body already running on a Comm inherits the
  /// Runtime::run threads_per_rank instead. Every thread count produces
  /// bit-identical orderings — this is a performance knob.
  int threads = 0;
};

/// Resolves DistRcmOptions::threads: a positive request passes through;
/// 0 reads DRCM_THREADS (re-read per call, like DRCM_SPMSPV_ACC, so benches
/// can flip configurations between runs), defaulting to 1.
int resolve_threads(int requested);

struct DistRcmStats {
  int components = 0;
  int peripheral_bfs_sweeps = 0;
  /// Total BFS levels labeled over all components (kRcm/kSloan arms; one
  /// fused 5-crossing collective each) — the figure the bi-criteria
  /// peripheral mode shrinks. 0 on the replicated kGps arm.
  index_t ordering_levels = 0;
  /// The algorithm that actually ran (kAuto resolved; never kAuto here).
  OrderingAlgorithm algorithm = OrderingAlgorithm::kRcm;
};

/// The memoized shape of one component's ordering run — what incremental
/// repair needs to resume the BFS mid-flight instead of recomputing.
/// All fields are in the WORK numbering and CM (pre-reversal) label space:
/// callers holding the reversed RCM labels recover cm(v) = n - 1 - rcm(v).
struct ComponentRecipe {
  /// argmin_unvisited winner that opened the component (min degree, ties
  /// to id, over the then-unlabeled vertices).
  index_t seed = kNoVertex;
  /// Pseudo-peripheral root the CM labeling started from.
  index_t root = kNoVertex;
  /// First CM label of every BFS level from the root, PLUS a trailing
  /// one-past-the-end sentinel: level l occupies [starts[l], starts[l+1]),
  /// so starts.front() is the component's first label and starts.back()
  /// one past its last.
  std::vector<index_t> level_starts;

  index_t lo() const { return level_starts.front(); }
  index_t hi() const { return level_starts.back(); }
  index_t levels() const {
    return static_cast<index_t>(level_starts.size()) - 1;
  }
};

/// Level structure of a whole ordering, one entry per component in
/// discovery order (components tile [0, n) contiguously). Captured for
/// free during a cold run (the level starts are the SORTPERM bucket
/// boundaries the fused kernel already walks) and cached by the serving
/// layer next to the labels.
struct OrderingRecipe {
  std::vector<ComponentRecipe> components;
  bool empty() const { return components.empty(); }
};

/// What the repair will do with one cached component.
enum class RepairAction {
  kReuse,      ///< untouched by the delta: copy the cached labels, skip
               ///< the peripheral search and every level step
  kCone,       ///< delta confined to levels >= cone_level >= 2: re-run the
               ///< peripheral search, copy levels < cone_level, re-level
               ///< only the cone below
  kRecompute,  ///< delta reaches level 0 or 1: full component recompute
               ///< (still cheaper than cold when other components reuse)
};

struct ComponentRepairPlan {
  RepairAction action = RepairAction::kReuse;
  /// First level the cone re-runs (kCone only); levels < cone_level are
  /// spliced from the cache.
  index_t cone_level = 0;
};

/// Driver-side classification of a pattern delta against a cached
/// ordering: which components are touched, how deep, and whether repair
/// is guaranteed to cost strictly fewer ordering-phase barrier crossings
/// than a cold recompute.
struct RepairPlan {
  std::vector<ComponentRepairPlan> components;
  /// Non-terminal cm_level_step collectives the plan skips (5 crossings
  /// each); reused components additionally skip their peripheral search
  /// and terminal steps.
  index_t level_steps_skipped = 0;
  /// Conservative crossing margin of repair vs cold: reuse >= +6 per
  /// component, cone +5*(cone_level-1) - 1 (the one-crossing
  /// membership-check allreduce), recompute -1. Repair is only worth
  /// launching when > 0.
  index_t crossing_margin = 0;
  bool profitable = false;
};

/// Classifies `changed_rows` (half-open row ranges whose pattern hashes
/// changed, e.g. from the refined-fingerprint window diff) against a
/// cached ordering. `cached_labels` are the REVERSED (RCM) labels the
/// cache stores; `recipe` the structure captured when they were computed.
/// Pure driver-side arithmetic — no collective, no charge.
RepairPlan plan_repair(const OrderingRecipe& recipe,
                       const std::vector<index_t>& cached_labels,
                       const std::vector<std::pair<index_t, index_t>>&
                           changed_rows,
                       index_t n);

/// Outcome of dist_rcm_repair. `ok == false` means a structural change
/// (component split/merge/reorder) was detected mid-repair: `labels` is
/// empty, nothing was poisoned, and the caller must fall back to a cold
/// recompute. `ok == true` guarantees `labels` is BIT-IDENTICAL to what
/// dist_rcm would return on the new pattern (DRCM_CHECK-able, and checked
/// by the equivalence wall in tests/test_service_repair.cpp).
struct RepairResult {
  bool ok = false;
  std::string reason;  ///< why not ok (structured, for logs)
  std::vector<index_t> labels;  ///< replicated RCM labels when ok
  OrderingRecipe recipe;        ///< refreshed recipe matching `labels`
  int reused = 0;
  int coned = 0;
  int recomputed = 0;
  index_t level_steps_skipped = 0;
};

/// SPMD body: repairs a cached ordering against the delta'd pattern `a`
/// (replicated, self-loop-free) instead of recomputing it. Walks the
/// cached components in discovery order, re-verifying at every decision
/// point exactly what a cold run would have computed — the seed argmin
/// must land in the expected component, a dirty component's re-run
/// peripheral search must return the cached root for the cone splice to
/// apply (otherwise the component honestly recomputes), and every cone is
/// count- and membership-checked against the cached component before the
/// splice stands. Any violated check returns ok == false with labels
/// untouched. Requires options.load_balance == false (the balance
/// relabel would decouple the recipe's numbering from the caller's).
/// Collective on grid.world().
RepairResult dist_rcm_repair(dist::ProcGrid2D& grid,
                             const sparse::CsrMatrix& a,
                             const std::vector<index_t>& cached_labels,
                             const OrderingRecipe& recipe,
                             const RepairPlan& plan,
                             const DistRcmOptions& options = {});

/// SPMD body — the portfolio's algorithm-agnostic ordering entry point.
/// Dispatches on options.ordering.algorithm:
///   kRcm   — the paper's distributed RCM (peripheral search + fused CM
///            levels + reversal), honoring ordering.peripheral_mode;
///   kSloan — level-synchronous Sloan over the SAME fused level kernel:
///            per component the pseudo-diameter pair (s, e) is computed
///            distributively, the static Sloan key replaces the degree as
///            the SORTPERM ranking key, and no reversal is applied.
///            Bit-identical to order::sloan_levels;
///   kGps   — Gibbs-Poole-Stockmeyer, v1: each rank runs the replicated
///            serial order::gps on the (balanced) pattern, charged as
///            compute — an honest placeholder until GPS's level-merging
///            phase is distributed;
///   kAuto  — rcm::select_ordering resolves a concrete algorithm from
///            cheap per-matrix proxies before any collective launches
///            (deterministic, so every rank picks the same arm).
/// `a` must be the same replicated symmetric self-loop-free pattern on all
/// ranks. Returns the replicated label vector (labels[v] = new index of v
/// in the ORIGINAL numbering). `recipe`, when non-null, receives the
/// per-component level structure — captured on the kRcm arm only (Sloan
/// and GPS orderings are not repair-eligible in v1; the recipe stays
/// empty, and the serving layer declines repairs against them). `stats`,
/// when non-null, records the resolved algorithm. Collective.
std::vector<index_t> dist_order(mps::Comm& world, const sparse::CsrMatrix& a,
                                const DistRcmOptions& options = {},
                                DistRcmStats* stats = nullptr,
                                OrderingRecipe* recipe = nullptr);

/// Thin wrapper over dist_order pinned to the kRcm arm (the pre-portfolio
/// contract this function's name promises): options.ordering.algorithm is
/// ignored, ordering.peripheral_mode is honored. Collective.
std::vector<index_t> dist_rcm(mps::Comm& world, const sparse::CsrMatrix& a,
                              const DistRcmOptions& options = {},
                              DistRcmStats* stats = nullptr,
                              OrderingRecipe* recipe = nullptr);

/// Convenience wrapper: launches `nranks` simulated ranks, runs dist_rcm,
/// and returns labels plus the per-phase cost report (the data behind the
/// paper's Figures 4-6).
struct DistRcmRun {
  std::vector<index_t> labels;
  DistRcmStats stats;
  mps::SpmdReport report;
};

DistRcmRun run_dist_rcm(int nranks, const sparse::CsrMatrix& a,
                        const DistRcmOptions& options = {},
                        const mps::MachineParams& machine = {});

/// run_dist_rcm's portfolio twin: launches `nranks` ranks and runs
/// dist_order (dispatching on options.ordering). run.stats.algorithm
/// records what kAuto resolved to.
DistRcmRun run_dist_order(int nranks, const sparse::CsrMatrix& a,
                          const DistRcmOptions& options = {},
                          const mps::MachineParams& machine = {});

/// The paper's Figure-1 pipeline as ONE distributed call: RCM ordering on
/// the 2D grid, ONE streaming redistribution routing every relabeled entry
/// straight to its 1D solver owner, a distributed rhs, and block-Jacobi
/// preconditioned CG producing per-rank solution slabs. Between ordering
/// and solution no rank materializes a replicated CSR or a replicated O(n)
/// value vector; the mpsim resident ledger records every stage's footprint
/// and ordered_solve asserts the per-rank peak stays O(nnz/p + n/p) (see
/// rcm_driver.cpp for the constants). The labels themselves stay
/// replicated: every consumer — the service cache, hits, repair, recipes,
/// and the Sloan/GPS/kAuto arms — takes them in that form.
struct OrderedSolveResult {
  /// RCM labels of the ORIGINAL numbering (labels[v] = new index of v).
  std::vector<index_t> labels;
  /// Bandwidth of the permuted matrix, computed distributively.
  index_t permuted_bandwidth = 0;
  solver::CgResult cg;
  /// This rank's solution slab for PERMUTED rows [x_lo, x_lo +
  /// x_local.size()) — the SPMD-body output; the body never replicates the
  /// solution. SPMD callers wanting the full vector use
  /// solver::gather_solution; the run_* wrappers assemble the replicated
  /// `x` outside the ranks instead.
  std::vector<double> x_local;
  index_t x_lo = 0;
  /// Replicated solution in the ORIGINAL numbering. Filled by the run_*
  /// wrappers AFTER the SPMD runs (empty at SPMD-body level, where the
  /// no-gather contract forbids it).
  std::vector<double> x;
};

/// Everything one ordered solve needs, in one place — the parameter object
/// the single pipeline core consumes. ordered_solve and run_ordered_solve
/// are thin wrappers that populate one of these and delegate; the serving
/// layer orders each request itself (cache hit, repair or cold dist_order)
/// and fills one with the labels set.
struct OrderedSolveSpec {
  /// Replicated SPD input (values required, diagonal included) — the
  /// pre-distribution fixture the simulator starts from. Required.
  const sparse::CsrMatrix* matrix = nullptr;
  /// Replicated rhs; must have matrix->n() entries.
  std::span<const double> b;
  bool precondition = true;
  DistRcmOptions rcm{};
  solver::CgOptions cg{};
  /// Optional pre-stripped adjacency equal to matrix->strip_diagonal()
  /// (run_* wrappers strip once outside the ranks; null makes each rank
  /// strip its own transient copy). Ignored when `labels` is set.
  const sparse::CsrMatrix* adjacency = nullptr;
  /// When non-null: labels the caller already holds (a cache hit, a
  /// repair, or an ordering it ran itself). Stage 1 is skipped entirely
  /// and redistribution runs under these KNOWN labels (a permutation of
  /// [0, n)); the body executes ZERO collectives in the five ordering
  /// phases and the result's `labels` stays empty.
  const std::vector<index_t>* labels = nullptr;
};

/// THE pipeline core: ordering (or label splice) -> one-shot redistribution
/// -> distributed CG, on a CALLER-OWNED grid, under the per-rank resident
/// budget DRCM_CHECK. The grid (and with it the per-rank DistWorkspace
/// staging every exchange) survives the call, so a serving layer's request
/// N+1 runs its collectives against warmed buffer capacities and its
/// workspace realloc ledger stays flat. With spec.labels set (the serving
/// layer always sets them) the core runs ZERO collectives in the five
/// ordering phases — the property the serving layer's crossing ledger
/// asserts per hit — and the result's `labels` stays empty. Collective on
/// grid.world().
OrderedSolveResult ordered_solve_spec(dist::ProcGrid2D& grid,
                                      const OrderedSolveSpec& spec);

/// Thin wrapper: ordered_solve_spec on a grid built from `world`, with the
/// classic positional arguments. SPMD body; collective; the world size
/// must be a perfect square (the 2D grid precondition).
OrderedSolveResult ordered_solve(mps::Comm& world, const sparse::CsrMatrix& a,
                                 std::span<const double> b,
                                 bool precondition = true,
                                 const DistRcmOptions& rcm_options = {},
                                 const solver::CgOptions& cg_options = {},
                                 const sparse::CsrMatrix* adjacency = nullptr);

/// Convenience wrapper: launches `nranks` ranks, runs ordered_solve, and
/// returns the result plus the cost/ledger report.
struct OrderedSolveRun {
  OrderedSolveResult result;
  mps::SpmdReport report;
};

OrderedSolveRun run_ordered_solve(int nranks, const sparse::CsrMatrix& a,
                                  std::span<const double> b,
                                  bool precondition = true,
                                  const DistRcmOptions& rcm_options = {},
                                  const solver::CgOptions& cg_options = {},
                                  const mps::MachineParams& machine = {});

/// Assembles the replicated ORIGINAL-numbering solution from per-rank
/// permuted slabs (rank order), OUTSIDE the SPMD ranks: the driver holds
/// the slabs like any other deposit, so no rank's ledger pays for the
/// O(n) copy. DRCM_CHECKs the slabs cover exactly labels.size() rows.
std::vector<double> assemble_solution(
    const std::vector<std::vector<double>>& slabs,
    const std::vector<index_t>& labels);

}  // namespace drcm::rcm
