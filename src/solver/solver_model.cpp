#include "solver/solver_model.hpp"

#include <cmath>

namespace drcm::solver {

double modeled_cg_seconds(const SolveTimeInputs& inputs,
                          const mps::MachineParams& machine) {
  DRCM_CHECK(inputs.halo.ranks >= 1 && inputs.iterations >= 0,
             "invalid solve model inputs");
  const double p = inputs.halo.ranks;
  const double alpha = machine.alpha;
  const double beta = machine.beta;
  const double gamma = machine.gamma;

  // SpMV + preconditioner sweep + 5 BLAS-1 passes.
  const double compute =
      gamma * (3.0 * static_cast<double>(inputs.nnz) / p +
               5.0 * static_cast<double>(inputs.n) / p);
  // Halo exchange: the busiest rank sends/receives its halo to/from its
  // neighbors; one message per neighbor.
  const double halo_comm =
      p > 1 ? alpha * inputs.halo.max_neighbors +
                  beta * static_cast<double>(inputs.halo.max_remote_entries)
            : 0.0;
  // Two reductions per iteration: p·Ap, and the next iteration's r·r
  // fused with r·z into one 2-word allreduce (allreduce latency).
  const double reductions = p > 1 ? 2.0 * 2.0 * alpha * std::log2(p) : 0.0;

  return inputs.iterations * (compute + halo_comm + reductions);
}

}  // namespace drcm::solver
