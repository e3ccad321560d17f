// Ordering-as-a-service: a batched, cached, concurrent request layer over
// the distributed RCM pipeline.
//
// A ReorderingService owns a fleet of `ranks` simulated MPI ranks and
// accepts a stream of OrderSolveRequests (matrix + rhs + options). Three
// amortizations turn the one-shot pipeline into a serving layer:
//
//   * WORKSPACE REUSE — one DistWorkspace per world rank persists across
//     requests (and across Runtime::run launches): every grid the service
//     builds adopts it (ProcGrid2D's external-workspace constructor), so
//     the realloc ledger extends across requests and steady-state repeats
//     of a shape run the exchanges reallocation-free.
//
//   * ORDERING CACHE (service/cache.hpp) — requests are keyed by a
//     partition-invariant sparsity-pattern fingerprint
//     (service/fingerprint.hpp). A repeat pattern skips BFS + SORTPERM
//     entirely and jumps straight to the value-carrying redistribution
//     (rcm::ordered_solve_spec with known labels); the body asserts ZERO
//     ordering-phase barrier crossings on every hit. Eviction is
//     COST/RECENCY weighted, so an expensive ordering survives a stream of
//     cheap one-offs.
//
//   * INCREMENTAL REPAIR — a near-miss (same n, at most kRepairMaxWindows
//     differing row windows of the refined fingerprint) runs
//     rcm::dist_rcm_repair when rcm::plan_repair prices it under a cold
//     recompute — reuse untouched components, re-level only the affected
//     BFS cone, splice — and falls back to a cold ordering the moment any
//     structural check fails. Repair hits are priced strictly between a
//     cache hit (0 ordering crossings) and a cold run.
//
//   * BATCHED EXECUTION — independent requests of one batch run
//     CONCURRENTLY on disjoint square sub-grids (lanes) carved from the
//     parent world by one Comm::split; per-request SpmdReport ledgers come
//     back with each response. Identical fingerprints in one batch are
//     COALESCED: the first occurrence computes, twins wait a wave and are
//     served from the freshly inserted entry — the ordering runs exactly
//     once per distinct pattern per batch.
//
// A batch runs in waves, each plan -> run -> commit: plan_wave classifies
// and carves lanes against the cache, run_wave launches the lanes (which
// only READ the cache), and commit_wave applies every cache mutation after
// the launch has joined.
//
// Fault isolation: scripted FaultPlan failures are one-shot, so a killed
// request returns a structured kFault response while its batch peers are
// transparently relaunched (at most kMaxRelaunches times per batch) and
// complete bit-identically to a fault-free run. The ordering cache is the
// pipeline's one stage-1 checkpoint: lane rank 0 deposits a miss's labels
// as soon as the ordering returns, and commit_wave caches every deposited
// ordering that is a valid permutation, whether or not its request
// finished. A fault in redistribution or the solve therefore never costs
// the ordering twice — the relaunched peer, or the victim's resubmission,
// is a hit. A faulted ORDERING never leaves a cache entry behind: it
// deposited nothing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dist/proc_grid.hpp"
#include "dist/workspace.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/runtime.hpp"
#include "rcm/rcm_driver.hpp"
#include "service/cache.hpp"
#include "service/fingerprint.hpp"

namespace drcm::service {

/// One unit of work: order `matrix` (replicated SPD fixture, values and
/// diagonal included), then solve matrix * x = b in the permuted basis.
struct OrderSolveRequest {
  const sparse::CsrMatrix* matrix = nullptr;
  std::span<const double> b;
  bool precondition = true;
  rcm::DistRcmOptions rcm{};
  solver::CgOptions cg{};
};

enum class RequestStatus {
  kOk,
  kFault,  ///< killed by a fault (or relaunch budget exhausted); see `error`
};

struct OrderSolveResponse {
  RequestStatus status = RequestStatus::kOk;
  /// Structured failure description when status == kFault.
  std::string error;
  bool cache_hit = false;
  /// Produced by incremental repair (component reuse + cone re-level +
  /// splice) from a near-miss cached entry, with at least one level step
  /// or component actually skipped. Mutually exclusive with cache_hit;
  /// a repair that degraded all the way to a full recompute (or fell back
  /// cold) reports false.
  bool repair_hit = false;
  /// This request waited out at least one wave because an identical
  /// fingerprint was already computing in the same batch (coalescing).
  bool coalesced = false;
  /// The ordering algorithm that actually served the request (kAuto
  /// resolved to a concrete arm; never kAuto here).
  rcm::OrderingAlgorithm algorithm = rcm::OrderingAlgorithm::kRcm;
  /// True when the request asked for kAuto and the service resolved it.
  bool auto_selected = false;
  /// The selector's evidence, recorded for every kAuto request so callers
  /// can audit the decision (zeroed otherwise).
  rcm::OrderingProxies proxies{};
  /// Refined-fingerprint row windows that differed from the repair
  /// source's (repair attempts only; 0 otherwise).
  int changed_windows = 0;
  /// Non-terminal ordering level steps the repair skipped (repair hits
  /// only; each is 5 barrier crossings a cold run would have paid).
  index_t level_steps_skipped = 0;
  PatternFingerprint fingerprint{};
  index_t permuted_bandwidth = 0;
  solver::CgResult cg{};
  /// Replicated solution in the ORIGINAL numbering, assembled by the
  /// driver outside the ranks (like run_ordered_solve).
  std::vector<double> x;
  /// Per-lane-rank ledgers of THIS request alone: each rank's recorder is
  /// reset when the request starts and deposited when it completes, so the
  /// report isolates the request from its batch peers and predecessors.
  mps::SpmdReport report;
  /// Max over lane ranks of this request's ordering-phase barrier
  /// crossings. Asserted (and observed) to be 0 on every cache hit.
  std::uint64_t ordering_crossings = 0;
  /// Sum over lane ranks of workspace reallocations charged to this
  /// request. 0 in the steady state (a growth performed by request k is
  /// detected at the next checkout, so the ledger settles by request 3 of
  /// a fixed shape).
  std::uint64_t workspace_reallocations = 0;
  int lane = -1;
  int lane_ranks = 0;
};

/// Relaunches (beyond the first launch) one batch may consume recovering
/// from faults before its unfinished requests are failed outright.
inline constexpr int kMaxRelaunches = 3;

struct ServiceOptions {
  /// World size of the service's rank fleet. Need not be square — lanes
  /// are carved as the largest square fitting the per-wave share.
  int ranks = 4;
  int threads_per_rank = 1;
  mps::MachineParams machine{};
  /// Scripted faults (one-shot actions), applied across ALL launches the
  /// service performs; may be null.
  mps::FaultPlan* faults = nullptr;
  double watchdog_seconds = 0.0;
  /// Ordering-cache capacity in patterns (cost/recency-weighted
  /// eviction; 0 disables caching AND repair). The capacity may be
  /// briefly exceeded when every resident entry is pinned by the batch
  /// in flight — served entries are never evicted mid-batch.
  std::size_t cache_capacity = 64;
  /// Debug cross-check: after every successful repair, run a
  /// stats-isolated cold ordering on the lane and DRCM_CHECK the repaired
  /// labels are bit-identical. Doubles the ordering cost of repairs (the
  /// cross-check is excluded from ledgers, but not from host wall time).
  bool verify_repair = false;
};

class ReorderingService {
 public:
  explicit ReorderingService(const ServiceOptions& options);

  /// Executes one request on the full fleet (one lane). Cache inserts are
  /// visible to the next submit, so a repeated pattern hits from the
  /// second submission on.
  OrderSolveResponse submit(const OrderSolveRequest& request);

  /// Executes a batch: requests are dealt round-robin onto disjoint
  /// square lanes and run concurrently; responses come back in request
  /// order. Each wave's lanes see the cache as of that wave's start
  /// (inserts land at wave end — lanes only ever READ the cache while
  /// ranks run).
  std::vector<OrderSolveResponse> submit_batch(
      std::span<const OrderSolveRequest> requests);

  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }
  /// Misses served by incremental repair (counted inside cache_misses).
  std::uint64_t repair_hits() const { return repair_hits_; }
  /// Requests served from an entry a same-batch twin inserted (counted
  /// inside cache_hits).
  std::uint64_t coalesced_served() const { return coalesced_served_; }
  std::size_t cache_size() const { return cache_.size(); }
  /// Runtime::run launches performed (relaunches included).
  int launches() const { return launches_; }
  /// Ledger folded over every launch, abandoned attempts included.
  const mps::SpmdReport& cumulative_report() const { return cumulative_; }
  /// Sum over ranks of persistent-workspace reallocations since
  /// construction (the cross-request warm-up metric).
  std::uint64_t workspace_reallocations() const;

 private:
  // One batch in flight, and one launch-sized wave of it (service.cpp).
  struct Batch;
  struct Wave;

  /// Coalescing, hit / repair / cold classification, lane carving and the
  /// round-robin deal. Reads the cache only.
  Wave plan_wave(Batch& batch) const;
  /// One Runtime::run launch of the wave's lanes, plus fault attribution.
  /// Returns whether the launch completed without a fault.
  bool run_wave(Batch& batch, Wave& wave);
  /// One request on its lane (SPMD body): hit, repair or cold dispatch,
  /// ledger isolation, and the deposit. Reads the cache only.
  void run_request(Batch& batch, const Wave& wave, std::size_t req,
                   mps::Comm& lane, dist::ProcGrid2D& grid,
                   int world_rank) const;
  /// After the launch joined: solution assembly, counters, recency bumps
  /// and pins, the wave-end inserts, and the relaunch budget.
  void commit_wave(Batch& batch, Wave& wave, bool clean);

  ServiceOptions options_;
  /// One persistent workspace per WORLD rank — the cross-request, cross-
  /// launch scratch the grids adopt. Indexed by world rank so a rank keeps
  /// its warmed capacities even as lane geometry changes between waves.
  std::vector<dist::DistWorkspace> workspaces_;
  OrderingCache cache_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t repair_hits_ = 0;
  std::uint64_t coalesced_served_ = 0;
  int launches_ = 0;
  mps::SpmdReport cumulative_;
};

}  // namespace drcm::service
