// Preconditioned conjugate gradient (the PETSc KSPCG stand-in of Figure 1).
#pragma once

#include <span>

#include "solver/block_jacobi.hpp"
#include "sparse/csr.hpp"

namespace drcm::solver {

struct CgOptions {
  double rtol = 1e-8;    ///< relative residual tolerance ||r||/||b||
  int max_iterations = 10000;
  /// Iterations tolerated without the best relative residual improving by
  /// at least 0.1% before the solve returns kStagnation; 0 disables the
  /// detector. Deterministic: the counter is driven by the replicated
  /// residual norm, so every rank takes the same exit.
  int stagnation_window = 250;
};

/// Structured outcome of a CG solve. The solver never asserts on bad
/// numerics: an indefinite direction, a stalled residual or a NaN/Inf in
/// the recurrence (e.g. a corrupted payload) each map to a status the
/// caller can branch on (the reordering service reports kNanInf in the
/// response's cg.status).
enum class SolveStatus : int {
  kConverged = 0,   ///< relative residual reached rtol
  kMaxIterations,   ///< iteration budget exhausted above rtol
  kBreakdown,       ///< p'Ap <= 0: not positive definite along a direction
  kStagnation,      ///< no residual progress for a full stagnation window
  kNanInf,          ///< NaN or Inf entered the recurrence
};

const char* solve_status_name(SolveStatus s);

struct CgResult {
  int iterations = 0;
  double relative_residual = 0.0;
  /// Redundant with status == kConverged; kept for existing callers.
  bool converged = false;
  SolveStatus status = SolveStatus::kMaxIterations;
  /// Zero pivots the block-Jacobi ILU(0) factorization shifted to keep the
  /// sweeps defined (the recorded preconditioner fallback); 0 on healthy
  /// SPD inputs and for unpreconditioned solves.
  int shifted_pivots = 0;
};

/// Solves A x = b for SPD A (values required). `x` is the initial guess on
/// entry and the solution on exit. `preconditioner` may be null (plain CG).
CgResult pcg(const sparse::CsrMatrix& a, std::span<const double> b,
             std::span<double> x, const BlockJacobi* preconditioner,
             const CgOptions& options = {});

}  // namespace drcm::solver
