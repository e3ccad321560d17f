// Per-layer probes: each layer's public entry point timed on its own, at
// p = 4 simulated ranks with one thread per rank, on a workload's input.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "report.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

inline constexpr int kRanks = 4;

struct LayerInput {
  const drcm::sparse::CsrMatrix* adjacency = nullptr;  ///< no diagonal
  const drcm::sparse::CsrMatrix* spd = nullptr;  ///< same pattern + diagonal
  const std::vector<drcm::index_t>* rcm = nullptr;  ///< serial RCM labels
  int kernel_reps = 20;  ///< repetitions of each distributed kernel
};

/// Medians the workload combines into same-run ratios.
struct LayerTimes {
  double barrier_s = 0.0;
  double level_step_s = 0.0;
  double serial_s = 0.0;
};

/// Appends every probe metric (mpsim.barrier_us, launch_ms, allreduce_us,
/// alltoallv_us; dist.spmspv_*_ms, acc_pick_ratio, sortperm_ms,
/// level_step_ms, redistribute_ms; rcm.peripheral_ms; order.serial_ms;
/// service.fingerprint_ms) to `out`, and checks every probe's output.
LayerTimes measure_layers(const LayerInput& in, Report& out);

}  // namespace perfbench
