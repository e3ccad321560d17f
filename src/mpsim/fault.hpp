// Deterministic fault injection for the mpsim runtime.
//
// A FaultPlan scripts failures per rank against the rank's own collective
// counter: "rank 2 dies entering its 17th collective", "rank 0 receives a
// corrupted payload at its 5th", "rank 3's allocation fails at its 9th",
// "rank 1 stalls for 0.2 modeled seconds at its 30th". The plan is injected
// through Comm's collective entry hook (Runtime::RunOptions::faults), so
// every failure scenario is a pure function of (plan, program) and replays
// bit-identically in ctest — no timing, no signals, no randomness at
// execution time. Seeded random plans (FaultPlan::random) make sweep tests
// reproducible the same way the synthetic generators are.
//
// Actions are ONE-SHOT: each fires at most once and stays spent afterwards,
// modeling transient faults so a recovery layer retrying the run does not
// re-hit the same failure forever. Only the target rank's thread reads or
// writes an action's fired flag, and retry attempts are sequential, so the
// flag needs no synchronization.
#pragma once

#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

namespace drcm::mps {

enum class FaultKind {
  kRankDeath,          ///< throw InjectedFault out of the collective
  kPayloadCorruption,  ///< flip bits in the next received payload
  kAllocFailure,       ///< throw std::bad_alloc (allocation K failed)
  kStall,              ///< charge T modeled seconds of dead time
};

const char* fault_kind_name(FaultKind kind);

/// One scripted failure: fires when `rank` enters its `at_collective`-th
/// collective (1-based, counted across ALL communicators the rank uses).
struct FaultAction {
  FaultKind kind = FaultKind::kRankDeath;
  int rank = 0;
  std::uint64_t at_collective = 1;
  /// kStall only: dead time charged to the cost ledger.
  double stall_modeled_seconds = 0.0;
  /// Spent flag (transient-fault semantics; see file comment).
  bool fired = false;
};

/// Thrown by the rank-death and (indirectly) corruption faults; carries the
/// scripted coordinates so tests and logs can name the fault.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultKind kind, int rank, std::uint64_t ordinal);
  FaultKind kind() const { return kind_; }
  int rank() const { return rank_; }
  std::uint64_t ordinal() const { return ordinal_; }

 private:
  FaultKind kind_;
  int rank_;
  std::uint64_t ordinal_;
};

/// The kAllocFailure fault: derives from std::bad_alloc so code that
/// handles real allocation failure handles the injected one identically,
/// but still names the scripted coordinates in what().
class InjectedAllocFailure : public std::bad_alloc {
 public:
  InjectedAllocFailure(int rank, std::uint64_t ordinal);
  const char* what() const noexcept override { return what_.c_str(); }
  int rank() const { return rank_; }
  std::uint64_t ordinal() const { return ordinal_; }

 private:
  std::string what_;
  int rank_;
  std::uint64_t ordinal_;
};

/// A scripted set of FaultActions. Fluent builders for tests; `random` for
/// seeded sweep plans.
class FaultPlan {
 public:
  FaultPlan& die_at(int rank, std::uint64_t nth_collective);
  FaultPlan& corrupt_at(int rank, std::uint64_t nth_collective);
  FaultPlan& fail_alloc_at(int rank, std::uint64_t nth_collective);
  FaultPlan& stall_at(int rank, std::uint64_t nth_collective,
                      double modeled_seconds);
  /// Not a fault but a scheduling perturbation: `rank` sleeps briefly after
  /// every barrier crossing, before the reads it opens, widening the window
  /// in which a board-reuse bug would let a fast peer overwrite what this
  /// rank is about to read. Persistent, unlike the one-shot actions.
  FaultPlan& delay_reads(int rank);
  bool delays_reads(int rank) const { return rank == slow_reader_; }

  /// A reproducible plan of `count` faults drawn from `seed`: ranks uniform
  /// in [0, nranks), ordinals uniform in [1, horizon], kinds cycling through
  /// the four FaultKinds.
  static FaultPlan random(std::uint64_t seed, int nranks,
                          std::uint64_t horizon, int count);

  /// The unfired action scheduled for (rank, ordinal), or null. Does not
  /// mark it fired — the injection site does, once the fault actually
  /// executed.
  FaultAction* find(int rank, std::uint64_t ordinal);

  /// Forget all fired flags, so the same plan can script a fresh run.
  void reset();

  bool empty() const { return actions_.empty(); }
  const std::vector<FaultAction>& actions() const { return actions_; }

 private:
  std::vector<FaultAction> actions_;
  int slow_reader_ = -1;
};

}  // namespace drcm::mps
