#include "mpsim/fault.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace drcm::mps {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kRankDeath: return "rank-death";
    case FaultKind::kPayloadCorruption: return "payload-corruption";
    case FaultKind::kAllocFailure: return "alloc-failure";
    case FaultKind::kStall: return "stall";
  }
  return "unknown";
}

InjectedFault::InjectedFault(FaultKind kind, int rank, std::uint64_t ordinal)
    : std::runtime_error("injected fault: " + std::string(fault_kind_name(kind)) +
                         " on rank " + std::to_string(rank) + " at collective #" +
                         std::to_string(ordinal)),
      kind_(kind),
      rank_(rank),
      ordinal_(ordinal) {}

InjectedAllocFailure::InjectedAllocFailure(int rank, std::uint64_t ordinal)
    : what_("injected fault: alloc-failure on rank " + std::to_string(rank) +
            " at collective #" + std::to_string(ordinal)),
      rank_(rank),
      ordinal_(ordinal) {}

namespace {

FaultAction make_action(FaultKind kind, int rank, std::uint64_t nth) {
  DRCM_CHECK(rank >= 0, "fault rank must be non-negative");
  DRCM_CHECK(nth >= 1, "collective ordinals are 1-based");
  FaultAction a;
  a.kind = kind;
  a.rank = rank;
  a.at_collective = nth;
  return a;
}

}  // namespace

FaultPlan& FaultPlan::die_at(int rank, std::uint64_t nth_collective) {
  actions_.push_back(make_action(FaultKind::kRankDeath, rank, nth_collective));
  return *this;
}

FaultPlan& FaultPlan::corrupt_at(int rank, std::uint64_t nth_collective) {
  actions_.push_back(
      make_action(FaultKind::kPayloadCorruption, rank, nth_collective));
  return *this;
}

FaultPlan& FaultPlan::fail_alloc_at(int rank, std::uint64_t nth_collective) {
  actions_.push_back(
      make_action(FaultKind::kAllocFailure, rank, nth_collective));
  return *this;
}

FaultPlan& FaultPlan::stall_at(int rank, std::uint64_t nth_collective,
                               double modeled_seconds) {
  DRCM_CHECK(modeled_seconds >= 0.0, "stall time must be non-negative");
  auto a = make_action(FaultKind::kStall, rank, nth_collective);
  a.stall_modeled_seconds = modeled_seconds;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::delay_reads(int rank) {
  slow_reader_ = rank;
  return *this;
}

FaultPlan FaultPlan::random(std::uint64_t seed, int nranks,
                            std::uint64_t horizon, int count) {
  DRCM_CHECK(nranks >= 1, "random plan needs at least one rank");
  DRCM_CHECK(horizon >= 1, "random plan needs a positive ordinal horizon");
  DRCM_CHECK(count >= 0, "random plan needs a non-negative fault count");
  static constexpr FaultKind kKinds[] = {
      FaultKind::kRankDeath, FaultKind::kPayloadCorruption,
      FaultKind::kAllocFailure, FaultKind::kStall};
  Rng rng(seed);
  FaultPlan plan;
  for (int i = 0; i < count; ++i) {
    const auto rank = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    const std::uint64_t nth = 1 + rng.next_below(horizon);
    auto a = make_action(kKinds[i % 4], rank, nth);
    if (a.kind == FaultKind::kStall) {
      a.stall_modeled_seconds = 0.01 * (1.0 + rng.next_double());
    }
    plan.actions_.push_back(a);
  }
  return plan;
}

FaultAction* FaultPlan::find(int rank, std::uint64_t ordinal) {
  for (auto& a : actions_) {
    // Match on (rank, ordinal) BEFORE touching `fired`: the flag is only
    // ever read or written by the owning rank's thread this way (see the
    // file comment's synchronization contract).
    if (a.rank == rank && a.at_collective == ordinal && !a.fired) return &a;
  }
  return nullptr;
}

void FaultPlan::reset() {
  for (auto& a : actions_) a.fired = false;
}

}  // namespace drcm::mps
