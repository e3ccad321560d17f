#include "mpsim/stats.hpp"

namespace drcm::mps {

std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::kPeripheralSpmspv:
      return "Peripheral:SpMSpV";
    case Phase::kPeripheralOther:
      return "Peripheral:Other";
    case Phase::kOrderingSpmspv:
      return "Ordering:SpMSpV";
    case Phase::kOrderingSort:
      return "Ordering:Sorting";
    case Phase::kOrderingOther:
      return "Ordering:Other";
    case Phase::kSolver:
      return "Solver";
    case Phase::kRedistribute:
      return "Redistribute";
    case Phase::kOther:
      return "Other";
  }
  return "Unknown";
}

PhaseTotals& PhaseTotals::operator+=(const PhaseTotals& o) {
  wall_seconds += o.wall_seconds;
  model_compute_seconds += o.model_compute_seconds;
  model_comm_seconds += o.model_comm_seconds;
  compute_units += o.compute_units;
  messages += o.messages;
  words += o.words;
  collectives += o.collectives;
  barrier_crossings += o.barrier_crossings;
  return *this;
}

void StatsRecorder::add_comm(Phase phase, const CommCost& cost) {
  auto& t = totals_[static_cast<int>(phase)];
  t.model_comm_seconds += cost.seconds;
  t.messages += cost.messages;
  t.words += cost.words;
}

void StatsRecorder::add_compute(Phase phase, double units,
                                double modeled_seconds) {
  auto& t = totals_[static_cast<int>(phase)];
  t.compute_units += units;
  t.model_compute_seconds += modeled_seconds;
}

void StatsRecorder::add_wall(Phase phase, double seconds) {
  totals_[static_cast<int>(phase)].wall_seconds += seconds;
}

void StatsRecorder::add_collective(Phase phase) {
  ++totals_[static_cast<int>(phase)].collectives;
}

void StatsRecorder::add_crossing(Phase phase) {
  ++totals_[static_cast<int>(phase)].barrier_crossings;
}

void StatsRecorder::note_resident(std::uint64_t elements) {
  if (elements > peak_resident_) peak_resident_ = elements;
}

void StatsRecorder::merge_from(const StatsRecorder& other) {
  for (int p = 0; p < kNumPhases; ++p) totals_[p] += other.totals_[p];
  note_resident(other.peak_resident_);
}

PhaseTotals StatsRecorder::total() const {
  PhaseTotals sum;
  for (const auto& t : totals_) sum += t;
  return sum;
}

void StatsRecorder::reset() {
  totals_ = {};
  peak_resident_ = 0;
}

namespace {

/// Sum over the five ordering-computation phases (paper Fig. 4's
/// Peripheral/Ordering x SpMSpV/Sort/Other breakdown).
PhaseTotals ordering_totals(const StatsRecorder& stats) {
  PhaseTotals sum;
  for (const Phase p : {Phase::kPeripheralSpmspv, Phase::kPeripheralOther,
                        Phase::kOrderingSpmspv, Phase::kOrderingSort,
                        Phase::kOrderingOther}) {
    sum += stats.phase(p);
  }
  return sum;
}

}  // namespace

std::uint64_t ordering_crossings(const StatsRecorder& stats) {
  return ordering_totals(stats).barrier_crossings;
}

double ordering_wall(const StatsRecorder& stats) {
  return ordering_totals(stats).wall_seconds;
}

}  // namespace drcm::mps
