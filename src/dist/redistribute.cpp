#include "dist/redistribute.hpp"

#include <algorithm>
#include <cmath>

namespace drcm::dist {

OneShotRowBlocks redistribute_to_row_blocks(const sparse::CsrMatrix& a,
                                            const std::vector<index_t>& labels,
                                            ProcGrid2D& grid) {
  const index_t n = a.n();
  DRCM_CHECK(labels.size() == static_cast<std::size_t>(n),
             "labels must cover every vertex");
  DRCM_CHECK(a.has_values() || a.nnz() == 0,
             "redistribute_to_row_blocks feeds the solver: "
             "the matrix must carry values");
  auto& world = grid.world();
  const int p = world.size();
  const VectorDist dist(n, grid.q());
  const index_t row_lo = dist.chunk_lo(grid.row());
  const index_t row_hi = dist.chunk_lo(grid.row() + 1);
  const index_t col_lo = dist.chunk_lo(grid.col());
  const index_t col_hi = dist.chunk_lo(grid.col() + 1);
  const bool has_values = a.has_values();

  // Stream my balanced-2D block straight out of the input: for each entry,
  // relabel BOTH coordinates and route the triple to the 1D owner of its
  // new row. A whole original row shares one new row, hence one
  // destination, so the owner lookup is per-row, not per-entry. The
  // permuted bandwidth folds into the same pass. Staging lives in the
  // workspace so a repeat pattern (same routing, same sizes) re-runs this
  // exchange with zero reallocations — the serving layer's steady state.
  auto& send = grid.workspace().mat_route(static_cast<std::size_t>(p));
  std::uint64_t block_nnz = 0;
  index_t local_bw = 0;
  for (index_t gr = row_lo; gr < row_hi; ++gr) {
    const auto cols = a.row(gr);
    const auto first = std::lower_bound(cols.begin(), cols.end(), col_lo);
    if (first == cols.end() || *first >= col_hi) continue;
    const index_t nr = labels[static_cast<std::size_t>(gr)];
    DRCM_CHECK(nr >= 0 && nr < n, "label out of range");
    auto& deal = send[static_cast<std::size_t>(row_block_owner(n, p, nr))];
    for (auto it = first; it != cols.end() && *it < col_hi; ++it) {
      const index_t nc = labels[static_cast<std::size_t>(*it)];
      DRCM_CHECK(nc >= 0 && nc < n, "label out of range");
      local_bw = std::max(local_bw, nr > nc ? nr - nc : nc - nr);
      const double val =
          has_values
              ? a.row_values(gr)[static_cast<std::size_t>(it - cols.begin())]
              : 0.0;
      deal.push_back(MatEntryV{nr, nc, val});
      ++block_nnz;
    }
  }
  auto recv = world.alltoallv(send);
  // The in-flight peak: the input block as a coordinate stream (a real
  // implementation holds exactly the triples it is about to route — no
  // CSC column pointer, so no O(n/q) term), the staged sends, and the
  // received slab triples. Everything is O(nnz/p) for a balanced block.
  // The staging capacity is deliberately NOT released: it is workspace
  // state, warm for the next request with this routing shape.
  world.note_resident(3 * block_nnz + 3 * block_nnz + 3 * recv.size());

  // Receive tail: one wholesale (row, col) sort of the received triples,
  // then the local CSR slab. The (row, col) keys are unique — a bijective
  // relabeling of a deduplicated pattern — so the block does not depend on
  // arrival order.
  const auto recv_size = recv.size();
  OneShotRowBlocks out;
  RowBlockCsr& block = out.block;
  block.n = n;
  block.lo = row_block_lo(n, p, world.rank());
  block.hi = row_block_lo(n, p, world.rank() + 1);
  std::sort(recv.begin(), recv.end(), [](const MatEntryV& x, const MatEntryV& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  });
  const auto nloc = static_cast<std::size_t>(block.local_rows());
  block.row_ptr.assign(nloc + 1, 0);
  block.cols.resize(recv_size);
  block.vals.resize(recv_size);
  for (std::size_t k = 0; k < recv_size; ++k) {
    // Receive-path range check (always on): the row indexes the local
    // row_ptr rebuild and the column later indexes CG's halo'd solution
    // vector.
    DRCM_CHECK(recv[k].row >= block.lo && recv[k].row < block.hi &&
                   recv[k].col >= 0 && recv[k].col < n,
               "received matrix entry outside the owned row block");
    ++block.row_ptr[static_cast<std::size_t>(recv[k].row - block.lo) + 1];
    block.cols[k] = recv[k].col;
    block.vals[k] = recv[k].val;
  }
  for (std::size_t r = 0; r < nloc; ++r) {
    block.row_ptr[r + 1] += block.row_ptr[r];
  }

  out.bandwidth = world.allreduce(
      local_bw, [](index_t x, index_t y) { return x > y ? x : y; });
  world.charge_compute(
      static_cast<double>(block_nnz) +
      static_cast<double>(recv_size) *
          (1.0 + std::log2(static_cast<double>(recv_size) + 2.0)));
  world.note_resident(3 * block_nnz + 3 * recv_size +
                      block.resident_elements());
  return out;
}

std::vector<double> redistribute_to_row_slab(const DistDenseVecD& v,
                                             const std::vector<index_t>& labels,
                                             mps::Comm& world,
                                             DistWorkspace* ws) {
  const index_t n = v.dist().n();
  const int p = world.size();
  DRCM_CHECK(labels.size() == static_cast<std::size_t>(n),
             "labels must cover every element");
  DRCM_CHECK(v.dist().q() * v.dist().q() == p,
             "redistribute_to_row_slab needs the grid's world comm");

  std::vector<std::vector<VecEntryD>> local_send;
  if (!ws) local_send.resize(static_cast<std::size_t>(p));
  std::vector<std::vector<VecEntryD>>& send =
      ws ? ws->vecd_route(static_cast<std::size_t>(p)) : local_send;
  for (index_t g = v.lo(); g < v.hi(); ++g) {
    const index_t ng = labels[static_cast<std::size_t>(g)];
    DRCM_CHECK(ng >= 0 && ng < n, "label out of range");
    send[static_cast<std::size_t>(row_block_owner(n, p, ng))].push_back(
        VecEntryD{ng, v.get(g)});
  }
  const auto recv = world.alltoallv(send);
  const index_t lo = row_block_lo(n, p, world.rank());
  const index_t hi = row_block_lo(n, p, world.rank() + 1);
  std::vector<double> slab(static_cast<std::size_t>(hi - lo), 0.0);
  DRCM_CHECK(recv.size() == slab.size(),
             "permutation must re-own every element exactly once");
  for (const auto& e : recv) {
    // Receive-path range check (always on): the index addresses my slab.
    DRCM_CHECK(e.idx >= lo && e.idx < hi,
               "received element outside the owned row block");
    slab[static_cast<std::size_t>(e.idx - lo)] = e.val;
  }
  world.charge_compute(static_cast<double>(v.local_size()) +
                       static_cast<double>(recv.size()));
  return slab;
}

}  // namespace drcm::dist
