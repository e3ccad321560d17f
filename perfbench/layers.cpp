#include "layers.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

#include "common/timer.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/level_kernel.hpp"
#include "dist/redistribute.hpp"
#include "dist/sortperm.hpp"
#include "dist/spmspv.hpp"
#include "mpsim/runtime.hpp"
#include "order/rcm_serial.hpp"
#include "rcm/dist_peripheral.hpp"
#include "service/fingerprint.hpp"
#include "sparse/metrics.hpp"

namespace perfbench {

using drcm::index_t;
using drcm::kNoVertex;
using drcm::WallTimer;
namespace dist = drcm::dist;
namespace mps = drcm::mps;

namespace {

/// The first component's Cuthill-McKee level structure, from the serial
/// reference labels: level l holds CM labels [start[l], start[l+1]).
struct Levels {
  std::vector<index_t> cm;        ///< CM label of every vertex
  std::vector<index_t> level_of;  ///< BFS level from the CM root, or -1
  std::vector<index_t> start;     ///< first CM label per level + sentinel
  std::vector<std::vector<index_t>> members;  ///< vertices per level, by id
  index_t root = kNoVertex;
};

Levels cm_levels(const drcm::sparse::CsrMatrix& a,
                 const std::vector<index_t>& rcm) {
  const index_t n = a.n();
  Levels lv;
  lv.cm.resize(static_cast<std::size_t>(n));
  lv.level_of.assign(static_cast<std::size_t>(n), -1);
  for (index_t v = 0; v < n; ++v) {
    lv.cm[static_cast<std::size_t>(v)] = n - 1 - rcm[static_cast<std::size_t>(v)];
    if (lv.cm[static_cast<std::size_t>(v)] == 0) lv.root = v;
  }
  std::vector<index_t> cur{lv.root};
  lv.level_of[static_cast<std::size_t>(lv.root)] = 0;
  while (!cur.empty()) {
    std::sort(cur.begin(), cur.end());
    index_t lo = std::numeric_limits<index_t>::max();
    for (const index_t v : cur) lo = std::min(lo, lv.cm[static_cast<std::size_t>(v)]);
    lv.start.push_back(lo);
    std::vector<index_t> next;
    const index_t depth = static_cast<index_t>(lv.members.size()) + 1;
    for (const index_t v : cur) {
      for (const index_t u : a.row(v)) {
        if (lv.level_of[static_cast<std::size_t>(u)] < 0) {
          lv.level_of[static_cast<std::size_t>(u)] = depth;
          next.push_back(u);
        }
      }
    }
    lv.members.push_back(std::move(cur));
    cur = std::move(next);
  }
  lv.start.push_back(lv.start.back() +
                     static_cast<index_t>(lv.members.back().size()));
  return lv;
}

/// This rank's share of `vertices` as a sparse vector, values from `val`.
dist::DistSpVec owned_vector(const dist::DistSpMat& mat, dist::ProcGrid2D& grid,
                             const std::vector<index_t>& vertices,
                             const std::function<index_t(index_t)>& val) {
  dist::DistSpVec x(mat.vec_dist(), grid);
  std::vector<dist::VecEntry> entries;
  for (const index_t v : vertices) {
    if (v >= x.lo() && v < x.hi()) entries.push_back({v, val(v)});
  }
  x.assign(std::move(entries));
  return x;
}

double max_over_ranks(mps::Comm& world, double s) {
  return world.allreduce(s, [](double a, double b) { return a > b ? a : b; });
}

bool all_ranks(mps::Comm& world, bool ok) {
  return world.allreduce(ok ? 1 : 0, [](int a, int b) { return a < b ? a : b; }) == 1;
}

/// Times `reps` calls of `fn` on every rank, each started from a barrier;
/// one sample per call, the slowest rank's wall (every rank gets them).
std::vector<double> spmd_time(mps::Comm& world, int reps,
                              const std::function<void(int)>& fn) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    world.barrier();
    WallTimer t;
    fn(i);
    out.push_back(max_over_ranks(world, t.seconds()));
  }
  return out;
}

std::vector<double> scaled(std::vector<double> v, double by) {
  for (double& x : v) x *= by;
  return v;
}

}  // namespace

LayerTimes measure_layers(const LayerInput& in, Report& out) {
  const auto& adj = *in.adjacency;
  const auto& spd = *in.spd;
  const auto& rcm = *in.rcm;
  const int reps = in.kernel_reps;
  const Levels lv = cm_levels(adj, rcm);
  const index_t depth = static_cast<index_t>(lv.members.size());

  // Widest level with a parent level (the SpMSpV and SORTPERM frontier),
  // and the mid-depth level that still has a successor (the level step).
  index_t wide = 1;
  for (index_t l = 1; l < depth; ++l) {
    if (lv.members[static_cast<std::size_t>(l)].size() >
        lv.members[static_cast<std::size_t>(wide)].size()) {
      wide = l;
    }
  }
  const index_t mid = std::max<index_t>(0, std::min(depth / 2, depth - 2));
  const auto& wide_v = lv.members[static_cast<std::size_t>(wide)];
  const index_t wide_n = static_cast<index_t>(wide_v.size());
  out.info("probe_widest_level", std::to_string(wide) + " of " +
                                     std::to_string(depth) + ", " +
                                     std::to_string(wide_n) + " vertices");
  out.info("probe_mid_level", std::to_string(mid) + ", " +
                                  std::to_string(lv.members[static_cast<std::size_t>(mid)].size()) +
                                  " vertices");

  // Parent label of each vertex of the widest level: its least-labeled
  // neighbour in the previous level (the SORTPERM input value).
  std::vector<index_t> parent(static_cast<std::size_t>(adj.n()), kNoVertex);
  for (const index_t v : wide_v) {
    index_t best = std::numeric_limits<index_t>::max();
    for (const index_t u : adj.row(v)) {
      if (lv.level_of[static_cast<std::size_t>(u)] == wide - 1) {
        best = std::min(best, lv.cm[static_cast<std::size_t>(u)]);
      }
    }
    parent[static_cast<std::size_t>(v)] = best;
  }

  // Serial references for the checks.
  index_t seed = 0;
  for (index_t v = 1; v < adj.n(); ++v) {
    if (adj.degree(v) < adj.degree(seed)) seed = v;
  }
  const index_t ref_bandwidth = drcm::sparse::bandwidth_with_labels(adj, rcm);
  const auto ref_fp = drcm::service::fingerprint_pattern_serial(spd);

  // ---- mpsim: collectives and launch --------------------------------------
  const int coll_reps = 2000;
  const index_t per_dest = std::max<index_t>(1, wide_n / (kRanks * kRanks));
  std::vector<double> barrier_s, allreduce_s, alltoallv_s;
  bool coll_ok = true;
  mps::Runtime::run(kRanks, [&](mps::Comm& world) {
    for (int i = 0; i < 50; ++i) world.barrier();
    std::vector<double> b, r;
    b.reserve(coll_reps);
    r.reserve(coll_reps);
    bool ok = true;
    for (int i = 0; i < coll_reps; ++i) {
      WallTimer t;
      world.barrier();
      b.push_back(t.seconds());
    }
    for (int i = 0; i < coll_reps; ++i) {
      WallTimer t;
      const auto sum = world.allreduce(static_cast<index_t>(world.rank() + i),
                                       std::plus<index_t>{});
      r.push_back(t.seconds());
      ok = ok && sum == static_cast<index_t>(6 + 4 * i);
    }
    std::vector<std::vector<dist::VecEntry>> send(
        kRanks, std::vector<dist::VecEntry>(static_cast<std::size_t>(per_dest),
                                            dist::VecEntry{world.rank(), 0}));
    std::vector<dist::VecEntry> got;
    const auto a2a = spmd_time(world, 200, [&](int) { got = world.alltoallv(send); });
    ok = ok && got.size() == static_cast<std::size_t>(per_dest * kRanks);
    ok = all_ranks(world, ok);
    if (world.rank() == 0) {
      barrier_s = std::move(b);
      allreduce_s = std::move(r);
      alltoallv_s = a2a;
      coll_ok = ok;
    }
  });
  out.check(coll_ok, "mpsim collective results");

  std::vector<double> launch_s;
  for (int i = 0; i < 100; ++i) {
    WallTimer t;
    mps::Runtime::run(kRanks, [](mps::Comm&) {});
    launch_s.push_back(t.seconds());
  }

  // ---- dist / rcm / service kernels on the workload's matrix --------------
  using Acc = dist::SpmspvAccumulator;
  std::vector<double> spa_s, sortmerge_s, auto_s, sortperm_s, level_s,
      peripheral_s, redistribute_s, fingerprint_s;
  Acc auto_used = Acc::kSpa;
  bool arms_agree = false, sortperm_ok = false, level_ok = false,
       peripheral_ok = false, redistribute_ok = false, fingerprint_ok = false;
  mps::Runtime::run(kRanks, [&](mps::Comm& world) {
    dist::ProcGrid2D grid(world);
    dist::DistSpMat mat(grid, adj);
    const auto degrees = mat.degrees(grid);

    const auto frontier = owned_vector(mat, grid, wide_v, [&](index_t v) {
      return lv.cm[static_cast<std::size_t>(v)];
    });
    std::vector<std::vector<dist::VecEntry>> results;
    std::vector<std::vector<double>> arm_s;
    Acc used = Acc::kSpa;
    for (const Acc acc : {Acc::kSpa, Acc::kSortMerge, Acc::kAuto}) {
      dist::DistSpVec y;
      arm_s.push_back(spmd_time(world, reps, [&](int) {
        y = dist::spmspv_select2nd_min(mat, frontier, grid, acc, nullptr,
                                       acc == Acc::kAuto ? &used : nullptr);
      }));
      results.push_back(y.to_global(world));
    }

    const auto unsorted = owned_vector(mat, grid, wide_v, [&](index_t v) {
      return parent[static_cast<std::size_t>(v)];
    });
    const index_t plo = lv.start[static_cast<std::size_t>(wide - 1)];
    const index_t phi = lv.start[static_cast<std::size_t>(wide)];
    dist::DistSpVec ranked;
    const auto sp = spmd_time(world, reps, [&](int) {
      ranked = dist::sortperm_bucket(unsorted, degrees, plo, phi, grid);
    });
    bool sp_ok = true;
    for (const auto& e : ranked.entries()) {
      sp_ok = sp_ok && e.val == lv.cm[static_cast<std::size_t>(e.idx)] - phi;
    }
    sp_ok = all_ranks(world, sp_ok && ranked.global_nnz(world) == wide_n);

    const auto& mid_v = lv.members[static_cast<std::size_t>(mid)];
    const auto& next_v = lv.members[static_cast<std::size_t>(mid + 1)];
    const auto level_frontier = owned_vector(mat, grid, mid_v, [&](index_t v) {
      return lv.cm[static_cast<std::size_t>(v)];
    });
    dist::DistDenseVec pristine(mat.vec_dist(), grid, kNoVertex);
    for (index_t g = pristine.lo(); g < pristine.hi(); ++g) {
      const index_t l = lv.level_of[static_cast<std::size_t>(g)];
      if (l >= 0 && l <= mid) pristine.set(g, lv.cm[static_cast<std::size_t>(g)]);
    }
    const index_t llo = lv.start[static_cast<std::size_t>(mid)];
    const index_t lhi = lv.start[static_cast<std::size_t>(mid + 1)];
    std::vector<double> lvl;
    bool lv_ok = true;
    for (int i = 0; i < reps; ++i) {
      dist::DistDenseVec labels = pristine;
      world.barrier();
      WallTimer t;
      const auto step = dist::cm_level_step(
          mat, level_frontier, labels, degrees, llo, lhi, lhi, grid,
          mps::Phase::kOrderingSpmspv, mps::Phase::kOrderingSort,
          mps::Phase::kOrderingOther);
      lvl.push_back(max_over_ranks(world, t.seconds()));
      if (i == 0) {
        lv_ok = step.global_nnz == static_cast<index_t>(next_v.size());
        for (const index_t v : next_v) {
          if (labels.owns(v)) {
            lv_ok = lv_ok && labels.get(v) == lv.cm[static_cast<std::size_t>(v)];
          }
        }
        lv_ok = all_ranks(world, lv_ok);
      }
    }

    drcm::rcm::DistPeripheralResult pr;
    const auto per = spmd_time(world, reps, [&](int) {
      pr = drcm::rcm::dist_pseudo_peripheral(mat, degrees, seed, grid);
    });

    dist::OneShotRowBlocks blocks;
    const auto red = spmd_time(world, reps, [&](int) {
      blocks = dist::redistribute_to_row_blocks(spd, rcm, grid);
    });
    const bool red_ok = all_ranks(world, blocks.bandwidth == ref_bandwidth);

    drcm::service::RefinedFingerprint fp;
    const auto fps = spmd_time(world, reps, [&](int) {
      fp = drcm::service::fingerprint_pattern_refined(world, spd, grid);
    });

    if (world.rank() == 0) {
      spa_s = arm_s[0];
      sortmerge_s = arm_s[1];
      auto_s = arm_s[2];
      auto_used = used;
      arms_agree = results[0] == results[1] && results[0] == results[2];
      sortperm_s = sp;
      sortperm_ok = sp_ok;
      level_s = lvl;
      level_ok = lv_ok;
      peripheral_s = per;
      peripheral_ok = pr.vertex == lv.root;
      redistribute_s = red;
      redistribute_ok = red_ok;
      fingerprint_s = fps;
      fingerprint_ok = fp.fp == ref_fp.fp && fp.windows == ref_fp.windows;
    }
  });
  out.check(arms_agree, "spmspv accumulator arms agree");
  out.check(sortperm_ok, "sortperm_bucket ranks the widest level as serial CM");
  out.check(level_ok, "cm_level_step labels the next level as serial CM");
  out.check(peripheral_ok, "dist_pseudo_peripheral finds the serial CM root");
  out.check(redistribute_ok, "redistribute_to_row_blocks bandwidth");
  out.check(fingerprint_ok, "fingerprint_pattern_refined matches serial");

  // ---- order: the serial baseline -----------------------------------------
  std::vector<double> serial_s;
  bool serial_ok = true;
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    const auto labels = drcm::order::rcm_serial(adj);
    serial_s.push_back(t.seconds());
    serial_ok = serial_ok && labels == rcm;
  }
  out.check(serial_ok, "rcm_serial repeats its labels");

  const double spa = median(spa_s), sortmerge = median(sortmerge_s);
  out.info("probe_auto_arm", auto_used == Acc::kSpa ? "spa" : "sortmerge");
  out.metric("mpsim.barrier_us", "us", median(scaled(barrier_s, 1e6)), barrier_s.size());
  out.metric("mpsim.launch_ms", "ms", median(scaled(launch_s, 1e3)), launch_s.size());
  out.metric("mpsim.allreduce_us", "us", median(scaled(allreduce_s, 1e6)), allreduce_s.size());
  out.metric("mpsim.alltoallv_us", "us", median(scaled(alltoallv_s, 1e6)), alltoallv_s.size());
  out.metric("dist.spmspv_spa_ms", "ms", 1e3 * spa, spa_s.size());
  out.metric("dist.spmspv_sortmerge_ms", "ms", 1e3 * sortmerge, sortmerge_s.size());
  out.metric("dist.spmspv_auto_ms", "ms", 1e3 * median(auto_s), auto_s.size());
  out.metric("dist.acc_pick_ratio", "ratio",
             median(auto_s) / std::min(spa, sortmerge), auto_s.size());
  out.metric("dist.sortperm_ms", "ms", 1e3 * median(sortperm_s), sortperm_s.size());
  out.metric("dist.level_step_ms", "ms", 1e3 * median(level_s), level_s.size());
  out.metric("dist.redistribute_ms", "ms", 1e3 * median(redistribute_s), redistribute_s.size());
  out.metric("rcm.peripheral_ms", "ms", 1e3 * median(peripheral_s), peripheral_s.size());
  out.metric("order.serial_ms", "ms", 1e3 * median(serial_s), serial_s.size());
  out.metric("service.fingerprint_ms", "ms", 1e3 * median(fingerprint_s), fingerprint_s.size());

  return {median(barrier_s), median(level_s), median(serial_s)};
}

}  // namespace perfbench
