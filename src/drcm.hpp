// Umbrella header: the complete public API of the drcm library.
//
// Most applications need only a subset:
//   #include "order/rcm_serial.hpp"   — sequential RCM
//   #include "rcm/rcm_driver.hpp"     — the paper's distributed RCM
//   #include "sparse/metrics.hpp"     — bandwidth / profile
// but including this header pulls in everything.
#pragma once

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

#include "mpsim/comm.hpp"
#include "mpsim/cost_model.hpp"
#include "mpsim/runtime.hpp"
#include "mpsim/stats.hpp"

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/graph_algo.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/metrics.hpp"
#include "sparse/permute.hpp"
#include "sparse/wavefront.hpp"

#include "order/gps.hpp"
#include "order/pseudo_peripheral.hpp"
#include "order/rcm_serial.hpp"
#include "order/rcm_shared.hpp"
#include "order/sloan.hpp"

#include "dist/dist_matrix.hpp"
#include "dist/dist_vector.hpp"
#include "dist/primitives.hpp"
#include "dist/proc_grid.hpp"
#include "dist/redistribute.hpp"
#include "dist/row_block.hpp"
#include "dist/sortperm.hpp"
#include "dist/spmspv.hpp"

#include "rcm/dist_bfs.hpp"
#include "rcm/dist_peripheral.hpp"
#include "rcm/dist_rcm.hpp"
#include "rcm/rcm_driver.hpp"
#include "rcm/trace_model.hpp"

#include "solver/block_jacobi.hpp"
#include "solver/cg.hpp"
#include "solver/dist_cg.hpp"
#include "solver/halo_analyzer.hpp"
#include "solver/skyline.hpp"
#include "solver/solver_model.hpp"
#include "solver/spmv.hpp"
