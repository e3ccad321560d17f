// Fault-injection suite: scripted rank deaths, allocation failures,
// payload corruption and stalls driven through the mpsim collective-entry
// hook, the collective mismatch detector, the barrier watchdog, and
// recovery through the reordering service. Every scenario must terminate
// with a structured error or a bit-identical result — zero hangs, zero raw
// aborts — and replays identically run over run (the plans are pure data;
// no timing or signals).
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mpsim/fault.hpp"
#include "mpsim/runtime.hpp"
#include "service/service.hpp"
#include "sparse/generators.hpp"

namespace drcm {
namespace {

using mps::Comm;
using mps::FaultKind;
using mps::FaultPlan;
using mps::Runtime;
namespace gen = sparse::gen;

mps::RunOptions with_faults(FaultPlan* plan, double watchdog = 0.0) {
  mps::RunOptions options;
  options.faults = plan;
  options.watchdog_seconds = watchdog;
  return options;
}

TEST(FaultPlan, FindMatchesExactCoordinatesOneShot) {
  FaultPlan plan;
  plan.die_at(1, 3).corrupt_at(2, 5);
  EXPECT_EQ(plan.find(1, 2), nullptr);
  EXPECT_EQ(plan.find(0, 3), nullptr);
  mps::FaultAction* a = plan.find(1, 3);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, FaultKind::kRankDeath);
  a->fired = true;  // what the injection site does once the fault executed
  EXPECT_EQ(plan.find(1, 3), nullptr) << "actions are one-shot";
  plan.reset();
  EXPECT_NE(plan.find(1, 3), nullptr) << "reset forgets fired flags";
}

TEST(FaultPlan, RandomPlansAreSeedReproducible) {
  const FaultPlan a = FaultPlan::random(42, 4, 100, 8);
  const FaultPlan b = FaultPlan::random(42, 4, 100, 8);
  const FaultPlan c = FaultPlan::random(43, 4, 100, 8);
  ASSERT_EQ(a.actions().size(), 8u);
  bool differs = false;
  for (std::size_t i = 0; i < a.actions().size(); ++i) {
    EXPECT_EQ(a.actions()[i].rank, b.actions()[i].rank);
    EXPECT_EQ(a.actions()[i].at_collective, b.actions()[i].at_collective);
    EXPECT_EQ(a.actions()[i].kind, b.actions()[i].kind);
    if (a.actions()[i].rank != c.actions()[i].rank ||
        a.actions()[i].at_collective != c.actions()[i].at_collective) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs) << "different seeds must give different plans";
}

TEST(FaultInjection, RankDeathThrowsInjectedFaultNamingTheFault) {
  FaultPlan plan;
  plan.die_at(2, 3);
  try {
    Runtime::run(
        4,
        [](Comm& world) {
          for (int i = 0; i < 5; ++i) world.barrier();
        },
        with_faults(&plan));
    FAIL() << "expected InjectedFault";
  } catch (const mps::InjectedFault& e) {
    EXPECT_EQ(e.kind(), FaultKind::kRankDeath);
    EXPECT_EQ(e.rank(), 2);
    EXPECT_EQ(e.ordinal(), 3u);
    EXPECT_NE(std::string(e.what()).find("rank-death"), std::string::npos);
  }
}

TEST(FaultInjection, AllocFailureIsCatchableAsBadAlloc) {
  FaultPlan plan;
  plan.fail_alloc_at(1, 2);
  try {
    Runtime::run(
        4,
        [](Comm& world) {
          for (int i = 0; i < 4; ++i) world.barrier();
        },
        with_faults(&plan));
    FAIL() << "expected bad_alloc";
  } catch (const std::bad_alloc& e) {
    EXPECT_NE(std::string(e.what()).find("alloc-failure"), std::string::npos);
  }
}

TEST(FaultInjection, StallChargesModeledTimeAndCompletes) {
  FaultPlan plan;
  plan.stall_at(1, 2, 0.5);
  const auto report = Runtime::run(
      4,
      [](Comm& world) {
        for (int i = 0; i < 4; ++i) world.barrier();
      },
      with_faults(&plan));
  EXPECT_GE(report.ranks[1].total().model_compute_seconds, 0.5);
  EXPECT_LT(report.ranks[0].total().model_compute_seconds, 0.5);
}

TEST(FaultInjection, CorruptionPoisonsTheNextReceivedPayload) {
  FaultPlan plan;
  plan.corrupt_at(1, 1);  // armed at the barrier, fires on the allreduce
  std::vector<double> results(4, 0.0);
  Runtime::run(
      4,
      [&](Comm& world) {
        world.barrier();
        results[static_cast<std::size_t>(world.rank())] =
            world.allreduce(1.0, [](double x, double y) { return x + y; });
      },
      with_faults(&plan));
  EXPECT_TRUE(std::isnan(results[1])) << "corrupted double must be NaN";
  EXPECT_DOUBLE_EQ(results[0], 4.0);
  EXPECT_DOUBLE_EQ(results[2], 4.0);
  EXPECT_DOUBLE_EQ(results[3], 4.0);
}

TEST(FaultInjection, MismatchedCollectivesThrowStructuredErrorNotDeadlock) {
  try {
    Runtime::run(4, [](Comm& world) {
      if (world.rank() == 0) {
        world.allreduce(1, [](int x, int y) { return x + y; });
      } else {
        world.allgather(world.rank());
      }
    });
    FAIL() << "expected CollectiveMismatchError";
  } catch (const mps::CollectiveMismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("allreduce"), std::string::npos) << what;
    EXPECT_NE(what.find("allgather"), std::string::npos) << what;
  }
}

TEST(FaultInjection, MismatchAtAFinalCrossingThrowsOnEveryRank) {
  // Every plain collective is a single crossing, so that crossing is also
  // its final one — and every crossing is verified. Each rank, the one in
  // the lone barrier included, sees the divergence and throws the
  // structured error itself.
  constexpr int kRanks = 4;
  std::vector<int> caught(kRanks, 0);
  EXPECT_THROW(
      Runtime::run(kRanks,
                   [&](Comm& world) {
                     try {
                       if (world.rank() == 0) {
                         world.barrier();
                       } else {
                         world.allreduce(1, [](int x, int y) { return x + y; });
                       }
                     } catch (const mps::CollectiveMismatchError&) {
                       caught[static_cast<std::size_t>(world.rank())] = 1;
                       throw;
                     }
                   }),
      mps::CollectiveMismatchError);
  EXPECT_EQ(caught, std::vector<int>(kRanks, 1));
}

TEST(FaultInjection, MismatchAtAPlainBarrierThrows) {
  // Two barriers entered under different phases are different collectives
  // (the tag carries the phase). A lone barrier crossing used to go
  // unverified and passed silently; now its check names both call sites.
  try {
    Runtime::run(4, [](Comm& world) {
      mps::PhaseScope scope(world, world.rank() == 2 ? mps::Phase::kSolver
                                                     : mps::Phase::kOther);
      world.barrier();
    });
    FAIL() << "expected CollectiveMismatchError";
  } catch (const mps::CollectiveMismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("barrier #1 [Solver]"), std::string::npos) << what;
    EXPECT_NE(what.find("barrier #1 [Other]"), std::string::npos) << what;
  }
}

TEST(FaultInjection, WatchdogConvertsAStalledRankIntoBoundedDiagnostic) {
  const auto start = std::chrono::steady_clock::now();
  try {
    Runtime::run(
        4,
        [](Comm& world) {
          if (world.rank() == 2) return;  // silently exits: never arrives
          world.barrier();
        },
        with_faults(nullptr, /*watchdog=*/0.25));
    FAIL() << "expected WatchdogTimeoutError";
  } catch (const mps::WatchdogTimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("last collective entered per rank"), std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 30) << "watchdog must fire within a bounded budget";
}

// ---------------------------------------------------------------------------
// Recovery through the reordering service: every fault kind, both CI rank
// counts. A submit either completes bit-identically to a fault-free service
// of the same geometry, or returns a structured kFault whose resubmission
// does. An ordering that finished before the fault is cached, so the
// resubmission skips it.

using service::OrderSolveRequest;
using service::OrderSolveResponse;
using service::ReorderingService;
using service::RequestStatus;
using service::ServiceOptions;

struct Problem {
  sparse::CsrMatrix a;
  std::vector<double> b;

  Problem(sparse::CsrMatrix matrix, double base, int period)
      : a(std::move(matrix)), b(static_cast<std::size_t>(a.n())) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = base + static_cast<double>(i % static_cast<std::size_t>(period));
    }
  }

  OrderSolveRequest request() const {
    OrderSolveRequest rq;
    rq.matrix = &a;
    rq.b = b;
    return rq;
  }
};

ServiceOptions service_options(int ranks, FaultPlan* plan = nullptr) {
  ServiceOptions options;
  options.ranks = ranks;
  options.faults = plan;
  options.watchdog_seconds = 20.0;
  return options;
}

OrderSolveResponse fault_free(int ranks, const OrderSolveRequest& rq) {
  ReorderingService service(service_options(ranks));
  return service.submit(rq);
}

void expect_same_solution(const OrderSolveResponse& got,
                          const OrderSolveResponse& want) {
  ASSERT_EQ(got.status, RequestStatus::kOk) << got.error;
  EXPECT_EQ(got.permuted_bandwidth, want.permuted_bandwidth);
  EXPECT_EQ(got.cg.iterations, want.cg.iterations);
  EXPECT_EQ(got.cg.status, want.cg.status);
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.x[i]),
              std::bit_cast<std::uint64_t>(want.x[i]))
        << "x[" << i << "]";
  }
}

struct NamedPlan {
  const char* name;
  FaultPlan plan;
  /// The ordering finished before the fault, so a failed request's
  /// resubmission is a cache hit.
  bool ordering_cached;
};

// Per-rank collective ordinals of one 8x8 request launch, the same at
// p = 4 and 9: 1-3 the lane and grid splits, 4-7 the fingerprint, 8-55
// the ordering, 56-58 the redistribution, then CG.
std::vector<NamedPlan> pipeline_plans(int nranks) {
  std::vector<NamedPlan> plans;
  plans.push_back({"rank-death", FaultPlan().die_at(nranks - 1, 20), false});
  plans.push_back({"payload-corruption", FaultPlan().corrupt_at(1, 5), false});
  plans.push_back({"alloc-failure", FaultPlan().fail_alloc_at(0, 57), true});
  plans.push_back({"stall", FaultPlan().stall_at(2, 2, 0.25), false});
  return plans;
}

TEST(ServiceRecovery, EveryFaultKindEndsBitIdenticalOrStructured) {
  const Problem problem(gen::with_laplacian_values(gen::grid2d(8, 8)), 1.0, 7);
  const auto rq = problem.request();
  for (const int p : {4, 9}) {
    const auto clean = fault_free(p, rq);
    ASSERT_EQ(clean.status, RequestStatus::kOk) << clean.error;
    for (auto& scripted : pipeline_plans(p)) {
      SCOPED_TRACE(std::string(scripted.name) + " p=" + std::to_string(p));
      ReorderingService service(service_options(p, &scripted.plan));
      const auto first = service.submit(rq);
      EXPECT_TRUE(scripted.plan.actions().front().fired)
          << "the fault must land inside the request";
      if (first.status == RequestStatus::kFault) {
        EXPECT_NE(first.error.find(scripted.name), std::string::npos)
            << first.error;
        EXPECT_EQ(service.cache_size(), scripted.ordering_cached ? 1u : 0u);
        const auto retried = service.submit(rq);
        EXPECT_EQ(retried.cache_hit, scripted.ordering_cached);
        expect_same_solution(retried, clean);
      } else {
        expect_same_solution(first, clean);
      }
      if (std::string(scripted.name) == "stall") {
        // A stall completes in one launch but still bills its dead time.
        EXPECT_EQ(first.status, RequestStatus::kOk);
        EXPECT_EQ(service.launches(), 1);
        EXPECT_GE(service.cumulative_report()
                      .ranks[2]
                      .total()
                      .model_compute_seconds,
                  0.25);
      } else {
        EXPECT_TRUE(first.status == RequestStatus::kFault ||
                    service.launches() > 1)
            << "the fault must fail the request or relaunch it";
      }
    }
  }
}

TEST(ServiceRecovery, SolveStageDeathCachesTheOrderingForTheRetry) {
  // Rank 3 dies in the middle of CG, long after the ordering returned. The
  // request still fails, but its ordering was validated and cached, so the
  // resubmission is a hit that skips every ordering collective.
  const Problem problem(gen::with_laplacian_values(gen::grid2d(9, 9)), 0.5, 5);
  const auto rq = problem.request();
  constexpr int kRanks = 4;
  constexpr int kVictim = 3;

  // A fault-free probe locates the solve: collective ordinals count every
  // collective a rank enters in the launch, and the request's closing
  // allreduce (the launch's last collective) directly follows the solver's.
  ReorderingService probe(service_options(kRanks));
  const auto clean = probe.submit(rq);
  ASSERT_EQ(clean.status, RequestStatus::kOk) << clean.error;
  const auto total =
      probe.cumulative_report().ranks[kVictim].total().collectives;
  const auto solver = clean.report.ranks[kVictim]
                          .phase(mps::Phase::kSolver)
                          .collectives;
  ASSERT_GT(solver, 2u);

  FaultPlan plan;
  plan.die_at(kVictim, total - 1 - solver / 2);
  ReorderingService service(service_options(kRanks, &plan));
  const auto killed = service.submit(rq);
  EXPECT_EQ(killed.status, RequestStatus::kFault);
  EXPECT_NE(killed.error.find("rank-death"), std::string::npos)
      << killed.error;
  EXPECT_TRUE(killed.x.empty());
  EXPECT_EQ(service.cache_size(), 1u)
      << "an ordering finished before the fault is checkpointed in the cache";

  const auto retried = service.submit(rq);
  EXPECT_TRUE(retried.cache_hit);
  EXPECT_EQ(retried.ordering_crossings, 0u);
  expect_same_solution(retried, clean);
  EXPECT_EQ(service.cache_hits(), 1u);
}

TEST(ServiceRecovery, AbandonedLaunchesStayOnTheCumulativeBill) {
  const Problem problem(gen::with_laplacian_values(gen::grid2d(8, 8)), 1.0, 1);
  const auto rq = problem.request();
  ReorderingService clean(service_options(4));
  ASSERT_EQ(clean.submit(rq).status, RequestStatus::kOk);

  FaultPlan plan;
  plan.stall_at(0, 2, 0.125).die_at(3, 5);
  ReorderingService service(service_options(4, &plan));
  EXPECT_EQ(service.submit(rq).status, RequestStatus::kFault);
  ASSERT_EQ(service.submit(rq).status, RequestStatus::kOk);
  // The cumulative ledger bills the abandoned launch's partial work and
  // its stall on top of everything the clean run pays.
  const auto& billed = service.cumulative_report().ranks[0].total();
  const auto& fault_free_bill = clean.cumulative_report().ranks[0].total();
  EXPECT_GT(billed.model_total(), fault_free_bill.model_total());
  EXPECT_GE(billed.model_compute_seconds,
            fault_free_bill.model_compute_seconds + 0.125);
}

TEST(ServiceRecovery, SeededRandomPlanSweepEndsBitIdentical) {
  const Problem problem(gen::with_laplacian_values(gen::grid2d(7, 7)), 0.5, 5);
  const auto rq = problem.request();
  const auto clean = fault_free(4, rq);
  ASSERT_EQ(clean.status, RequestStatus::kOk) << clean.error;
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FaultPlan plan = FaultPlan::random(seed, 4, 60, 3);
    ReorderingService service(service_options(4, &plan));
    // Each failing launch spends at least one of the three one-shot
    // faults, so the fourth submission runs fault-free. A poisoned CG
    // recurrence is a structured outcome too (kOk with cg.status kNanInf)
    // and is resubmitted like a kFault.
    OrderSolveResponse response;
    for (int attempt = 0; attempt < 4; ++attempt) {
      response = service.submit(rq);
      if (response.status == RequestStatus::kOk && response.cg.converged) {
        break;
      }
      if (response.status == RequestStatus::kFault) {
        EXPECT_FALSE(response.error.empty());
      }
    }
    // Every completed, converged answer is the fault-free one, bit for bit.
    EXPECT_TRUE(response.cg.converged);
    expect_same_solution(response, clean);
  }
}

}  // namespace
}  // namespace drcm
