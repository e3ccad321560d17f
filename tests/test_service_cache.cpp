// The ordering cache of the reordering service: correctness of the hit
// path, collision resistance of the fingerprint, fault hygiene of the
// cache, and the steady-state zero-work contracts of a long stream.
//
//  * a repeat pattern HITS, skips every ordering collective (the ledger
//    says exactly zero ordering-phase crossings), and still produces a
//    solution bit-identical to the cold run and to run_ordered_solve;
//  * a hit serves a DIFFERENT rhs correctly (the cache keys the pattern,
//    not the problem);
//  * same-shape different-pattern requests MUST miss (n and nnz equal,
//    structure different), and ordering-salient options salt the key;
//  * a rank death mid-ordering returns a structured kFault and never
//    leaves a poisoned cache entry behind;
//  * a 50-request stream of one pattern runs with zero workspace
//    reallocations and zero ordering crossings from request 3 on;
//  * eviction is cost/recency-weighted (an expensive ordering survives
//    cheap churn), an ordering-irrelevant seed does not split the key,
//    and unsorted CSR input is rejected before it can be fingerprinted.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "mpsim/fault.hpp"
#include "rcm/rcm_driver.hpp"
#include "service/service.hpp"
#include "sparse/generators.hpp"

namespace drcm::service {
namespace {

namespace gen = sparse::gen;

std::vector<double> wavy_rhs(index_t n, unsigned salt = 0) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(i)] =
        1.0 +
        0.5 * static_cast<double>(((i + salt) * 2654435761u) % 1000) / 1000.0;
  }
  return b;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "component " << i;
  }
}

TEST(ServiceCache, RepeatPatternHitsAndSolvesBitIdentically) {
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(16, 16), 5), 0.02);
  const auto b = wavy_rhs(m.n());

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest request;
  request.matrix = &m;
  request.b = b;

  const auto cold = service.submit(request);
  ASSERT_EQ(cold.status, RequestStatus::kOk);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.ordering_crossings, 0u);

  const auto warm = service.submit(request);
  ASSERT_EQ(warm.status, RequestStatus::kOk);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.ordering_crossings, 0u)
      << "a cache hit must skip every ordering collective";
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(warm.permuted_bandwidth, cold.permuted_bandwidth);
  EXPECT_EQ(warm.cg.iterations, cold.cg.iterations);
  expect_bitwise_equal(warm.x, cold.x);

  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_EQ(service.cache_misses(), 1u);
  EXPECT_EQ(service.cache_size(), 1u);

  // Both must equal the one-call pipeline on the same four ranks.
  const auto reference = rcm::run_ordered_solve(4, m, b);
  ASSERT_TRUE(reference.result.cg.converged);
  expect_bitwise_equal(cold.x, reference.result.x);

  // The ledgers are per request: the hit's report must show zero
  // crossings in all five ordering phases on every lane rank.
  for (const auto& rank : warm.report.ranks) {
    EXPECT_EQ(mps::ordering_crossings(rank), 0u);
  }
}

TEST(ServiceCache, HitServesADifferentRhsCorrectly) {
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(14, 15), 9), 0.02);
  const auto b1 = wavy_rhs(m.n(), 0);
  const auto b2 = wavy_rhs(m.n(), 77);

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest request;
  request.matrix = &m;
  request.b = b1;
  ASSERT_EQ(service.submit(request).status, RequestStatus::kOk);

  request.b = b2;
  const auto warm = service.submit(request);
  ASSERT_EQ(warm.status, RequestStatus::kOk);
  EXPECT_TRUE(warm.cache_hit);

  const auto reference = rcm::run_ordered_solve(4, m, b2);
  expect_bitwise_equal(warm.x, reference.result.x);
}

TEST(ServiceCache, SameShapeDifferentPatternMustMiss) {
  // Relabelings of one graph: identical n, identical nnz, different
  // structure. The structure hash must separate them — a false hit would
  // order matrix B with matrix A's labels and silently destroy the
  // bandwidth (or worse, the permutation property is the only thing the
  // solver would notice).
  const auto base = gen::grid2d(16, 16);
  const auto a = gen::with_laplacian_values(gen::relabel_random(base, 1), 0.02);
  const auto c = gen::with_laplacian_values(gen::relabel_random(base, 2), 0.02);
  ASSERT_EQ(a.n(), c.n());
  ASSERT_EQ(a.nnz(), c.nnz());
  const auto b = wavy_rhs(a.n());

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest ra;
  ra.matrix = &a;
  ra.b = b;
  OrderSolveRequest rc;
  rc.matrix = &c;
  rc.b = b;

  const auto first = service.submit(ra);
  const auto second = service.submit(rc);
  ASSERT_EQ(first.status, RequestStatus::kOk);
  ASSERT_EQ(second.status, RequestStatus::kOk);
  EXPECT_FALSE(second.cache_hit)
      << "same (n, nnz) with different structure must not collide";
  EXPECT_NE(first.fingerprint.hash, second.fingerprint.hash);
  EXPECT_EQ(service.cache_misses(), 2u);

  // Ordering-salient options salt the key: the load-balanced ordering of
  // the SAME pattern is a different labeling, so it must miss too …
  OrderSolveRequest balanced = ra;
  balanced.rcm.load_balance = true;
  const auto third = service.submit(balanced);
  ASSERT_EQ(third.status, RequestStatus::kOk);
  EXPECT_FALSE(third.cache_hit);

  // … as must a different balance seed; but repeating the exact salted
  // configuration hits.
  OrderSolveRequest reseeded = balanced;
  reseeded.rcm.seed = balanced.rcm.seed + 1;
  EXPECT_FALSE(service.submit(reseeded).cache_hit);
  EXPECT_TRUE(service.submit(balanced).cache_hit);
}

TEST(ServiceCache, FaultNeverPoisonsTheCache) {
  const auto a = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(13, 14), 4), 0.02);
  const auto c = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(13, 14), 8), 0.02);
  const auto b = wavy_rhs(a.n());

  mps::FaultPlan plan;
  ServiceOptions options;
  options.ranks = 4;
  options.faults = &plan;
  options.watchdog_seconds = 20.0;
  ReorderingService service(options);

  OrderSolveRequest ra;
  ra.matrix = &a;
  ra.b = b;
  OrderSolveRequest rc;
  rc.matrix = &c;
  rc.b = b;

  ASSERT_EQ(service.submit(ra).status, RequestStatus::kOk);
  ASSERT_EQ(service.cache_size(), 1u);

  // Kill rank 1 mid-ordering of pattern C's first submission. The request
  // must come back as a structured fault — and the cache must NOT have
  // gained an entry for C.
  plan.die_at(1, 10);
  const auto killed = service.submit(rc);
  EXPECT_EQ(killed.status, RequestStatus::kFault);
  EXPECT_NE(killed.error.find("rank-death"), std::string::npos)
      << killed.error;
  EXPECT_EQ(service.cache_size(), 1u)
      << "a faulted request must not leave a cache entry";

  // The retry (fault spent) is a MISS, completes, and only then caches;
  // a fourth submission hits and matches the fault-free reference.
  const auto retried = service.submit(rc);
  ASSERT_EQ(retried.status, RequestStatus::kOk);
  EXPECT_FALSE(retried.cache_hit);
  EXPECT_EQ(service.cache_size(), 2u);

  const auto warm = service.submit(rc);
  ASSERT_EQ(warm.status, RequestStatus::kOk);
  EXPECT_TRUE(warm.cache_hit);
  const auto reference = rcm::run_ordered_solve(4, c, b);
  expect_bitwise_equal(warm.x, reference.result.x);
}

TEST(ServiceCache, SteadyStateStreamRunsWithoutReallocationOrOrderingWork) {
  // A 50-request stream of one pattern (rhs varies): request 1 is the cold
  // miss that sizes every buffer, request 2's checkouts DETECT the growth
  // request 1 performed (capacity deltas are recorded at the buffer's next
  // checkout — see DistWorkspace), and from request 3 on the service must
  // run allocation-free and ordering-free: zero workspace reallocations,
  // zero ordering crossings, every request a hit.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(12, 12), 6), 0.02);

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  std::uint64_t reallocs_after_warmup = 0;
  std::vector<double> x2;
  for (int k = 1; k <= 50; ++k) {
    const auto b = wavy_rhs(m.n(), static_cast<unsigned>(k % 3));
    OrderSolveRequest request;
    request.matrix = &m;
    request.b = b;
    const auto resp = service.submit(request);
    ASSERT_EQ(resp.status, RequestStatus::kOk) << "request " << k;
    if (k == 1) {
      EXPECT_FALSE(resp.cache_hit);
      continue;
    }
    EXPECT_TRUE(resp.cache_hit) << "request " << k;
    EXPECT_EQ(resp.ordering_crossings, 0u) << "request " << k;
    if (k == 2) {
      x2 = resp.x;
      reallocs_after_warmup = service.workspace_reallocations();
      continue;
    }
    EXPECT_EQ(resp.workspace_reallocations, 0u)
        << "request " << k << " reallocated in the steady state";
    // Same rhs cycle as request 2 -> bitwise the same solution.
    if (k % 3 == 2 % 3) expect_bitwise_equal(resp.x, x2);
  }
  EXPECT_EQ(service.workspace_reallocations(), reallocs_after_warmup)
      << "the workspace ledger must be flat from request 3 on";
  EXPECT_EQ(service.cache_hits(), 49u);
  EXPECT_EQ(service.cache_misses(), 1u);
}

TEST(ServiceCache, CostRecencyEvictionKeepsTheExpensiveEntry) {
  // Capacity 2 with cost/recency eviction: BIG's ordering wall is orders
  // of magnitude above the small patterns', so when a third entry needs a
  // slot the victim is the cheap older entry — under the old FIFO policy
  // BIG (first in) would have been thrown away and recomputed.
  const auto big = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(48, 48), 1), 0.02);
  const auto s1 = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(6, 6), 2), 0.02);
  // Every n differs, so no pattern can repair from another (candidacy
  // needs equal n): the test sees the eviction policy alone.
  const auto s2 = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(6, 7), 3), 0.02);
  const auto b_big = wavy_rhs(big.n());
  const auto b_small = wavy_rhs(s1.n());
  const auto b_s2 = wavy_rhs(s2.n());

  ServiceOptions options;
  options.ranks = 4;
  options.cache_capacity = 2;
  ReorderingService service(options);

  OrderSolveRequest rbig, rs1, rs2;
  rbig.matrix = &big;
  rbig.b = b_big;
  rs1.matrix = &s1;
  rs1.b = b_small;
  rs2.matrix = &s2;
  rs2.b = b_s2;

  EXPECT_FALSE(service.submit(rbig).cache_hit);
  EXPECT_FALSE(service.submit(rs1).cache_hit);
  EXPECT_FALSE(service.submit(rs2).cache_hit);  // needs a slot
  EXPECT_EQ(service.cache_size(), 2u);
  EXPECT_TRUE(service.submit(rbig).cache_hit)
      << "the expensive ordering must survive the cheap churn";
  EXPECT_FALSE(service.submit(rs1).cache_hit)
      << "the cheap older entry was the cost/recency victim";

  ServiceOptions uncached = options;
  uncached.cache_capacity = 0;
  ReorderingService nocache(uncached);
  EXPECT_FALSE(nocache.submit(rs1).cache_hit);
  EXPECT_FALSE(nocache.submit(rs1).cache_hit);
  EXPECT_EQ(nocache.cache_size(), 0u);
}

TEST(ServiceCache, UnbalancedSeedIsNotSalient) {
  // Seed-salience audit (service/fingerprint.hpp): with load_balance off,
  // DistRcmOptions::seed never reaches the ordering — the peripheral
  // finder, CM levels and SORTPERM are seed-free deterministic. Two
  // differently-seeded unbalanced requests therefore compute the SAME
  // labeling and MUST share one cache slot; separate slots would just
  // recompute the identical ordering (the pre-audit behavior).
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(13, 13), 7), 0.02);
  const auto b = wavy_rhs(m.n());

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest first;
  first.matrix = &m;
  first.b = b;
  first.rcm.seed = 123;
  const auto cold = service.submit(first);
  ASSERT_EQ(cold.status, RequestStatus::kOk);
  EXPECT_FALSE(cold.cache_hit);

  OrderSolveRequest reseeded = first;
  reseeded.rcm.seed = 456;
  const auto warm = service.submit(reseeded);
  ASSERT_EQ(warm.status, RequestStatus::kOk);
  EXPECT_TRUE(warm.cache_hit)
      << "an ordering-irrelevant seed must not split the cache key";
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(service.cache_size(), 1u);
  expect_bitwise_equal(warm.x, cold.x);
}

TEST(ServiceCache, AlgorithmSaltsTheKeyAndGpsIgnoresPeripheralMode) {
  // Algorithm-salience audit (service/fingerprint.hpp), the portfolio twin
  // of UnbalancedSeedIsNotSalient:
  //  * the algorithm is ALWAYS salient — RCM, Sloan and GPS label the same
  //    pattern differently, so their entries must occupy distinct slots;
  //  * peripheral_mode is salient for kRcm (it moves the component roots,
  //    hence the labels) …
  //  * … but NOT for kGps, which never consumes the knob: two GPS requests
  //    differing only in peripheral_mode compute the identical ordering
  //    and must share ONE slot.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(13, 13), 3), 0.02);
  const auto b = wavy_rhs(m.n());

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest rq;
  rq.matrix = &m;
  rq.b = b;

  const auto as_rcm = service.submit(rq);
  ASSERT_EQ(as_rcm.status, RequestStatus::kOk);
  EXPECT_FALSE(as_rcm.cache_hit);
  EXPECT_EQ(as_rcm.algorithm, rcm::OrderingAlgorithm::kRcm);
  EXPECT_FALSE(as_rcm.auto_selected);

  OrderSolveRequest sloan = rq;
  sloan.rcm.ordering.algorithm = rcm::OrderingAlgorithm::kSloan;
  const auto as_sloan = service.submit(sloan);
  ASSERT_EQ(as_sloan.status, RequestStatus::kOk);
  EXPECT_FALSE(as_sloan.cache_hit)
      << "a different algorithm is a different labeling: it must miss";
  EXPECT_NE(as_sloan.fingerprint.hash, as_rcm.fingerprint.hash);
  EXPECT_EQ(as_sloan.algorithm, rcm::OrderingAlgorithm::kSloan);
  EXPECT_TRUE(service.submit(sloan).cache_hit);

  // peripheral_mode splits kRcm slots …
  OrderSolveRequest bicriteria = rq;
  bicriteria.rcm.ordering.peripheral_mode =
      rcm::PeripheralMode::kBiCriteria;
  EXPECT_FALSE(service.submit(bicriteria).cache_hit)
      << "the peripheral mode moves the roots, so it salts RCM keys";
  EXPECT_TRUE(service.submit(bicriteria).cache_hit);

  // … but two GPS requests differing only in the mode share one slot.
  OrderSolveRequest gps = rq;
  gps.rcm.ordering.algorithm = rcm::OrderingAlgorithm::kGps;
  const auto gps_cold = service.submit(gps);
  ASSERT_EQ(gps_cold.status, RequestStatus::kOk);
  EXPECT_FALSE(gps_cold.cache_hit);
  OrderSolveRequest gps_mode = gps;
  gps_mode.rcm.ordering.peripheral_mode = rcm::PeripheralMode::kBiCriteria;
  const auto gps_warm = service.submit(gps_mode);
  ASSERT_EQ(gps_warm.status, RequestStatus::kOk);
  EXPECT_TRUE(gps_warm.cache_hit)
      << "GPS never consumes peripheral_mode: salting it would split "
         "identical orderings across slots";
  EXPECT_EQ(gps_warm.fingerprint, gps_cold.fingerprint);
  expect_bitwise_equal(gps_warm.x, gps_cold.x);
}

TEST(ServiceCache, AutoSharesTheSlotOfItsResolution) {
  // kAuto is resolved driver-side BEFORE salting, so an auto request and
  // an explicit request for its resolution are the same cache key — the
  // auto submission below must HIT the entry the explicit one inserted.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(12, 13), 11), 0.02);
  const auto b = wavy_rhs(m.n());
  const auto choice = rcm::select_ordering(m.strip_diagonal());

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest explicit_rq;
  explicit_rq.matrix = &m;
  explicit_rq.b = b;
  explicit_rq.rcm.ordering.algorithm = choice.algorithm;
  ASSERT_EQ(service.submit(explicit_rq).status, RequestStatus::kOk);

  OrderSolveRequest auto_rq = explicit_rq;
  auto_rq.rcm.ordering.algorithm = rcm::OrderingAlgorithm::kAuto;
  const auto resp = service.submit(auto_rq);
  ASSERT_EQ(resp.status, RequestStatus::kOk);
  EXPECT_TRUE(resp.cache_hit)
      << "auto must resolve before salting and share the explicit slot";
  EXPECT_EQ(service.cache_size(), 1u);
  // The response audits the decision: resolved algorithm plus the proxies
  // it was derived from.
  EXPECT_TRUE(resp.auto_selected);
  EXPECT_EQ(resp.algorithm, choice.algorithm);
  EXPECT_EQ(resp.proxies.n, m.strip_diagonal().n());
  EXPECT_EQ(resp.proxies.bandwidth, choice.proxies.bandwidth);
  EXPECT_EQ(resp.proxies.components, choice.proxies.components);
}

TEST(ServiceCache, UnsortedCsrCannotReachTheFingerprint) {
  // The fingerprint walks each row assuming strictly sorted columns; an
  // unsorted CSR would be silently mis-fingerprinted (entries outside the
  // probed window skipped), letting two distinct patterns collide. The
  // CsrMatrix constructor rejects such input at ingestion — pinned here
  // so the fingerprint's precondition can never be relaxed by accident —
  // and fingerprint_pattern keeps its own in-walk sortedness check as
  // defense in depth.
  std::vector<nnz_t> row_ptr{0, 2, 3, 4};
  std::vector<index_t> unsorted_cols{2, 1, 0, 0};  // row 0: {2, 1}
  EXPECT_THROW(sparse::CsrMatrix(3, row_ptr, unsorted_cols), CheckError);

  std::vector<index_t> duplicate_cols{1, 1, 0, 0};  // row 0: {1, 1}
  EXPECT_THROW(sparse::CsrMatrix(3, row_ptr, duplicate_cols), CheckError);
}

}  // namespace
}  // namespace drcm::service
