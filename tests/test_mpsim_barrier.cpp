// Unit tests for Comm::barrier(), the runtime's reusable rank barrier.
#include <gtest/gtest.h>

#include <atomic>

#include "mpsim/runtime.hpp"

namespace drcm::mps {
namespace {

TEST(CommBarrier, SingleParticipantNeverBlocks) {
  const auto report = Runtime::run(1, [](Comm& world) {
    for (int i = 0; i < 100; ++i) world.barrier();
  });
  EXPECT_EQ(report.ranks[0].total().barrier_crossings, 100u);
}

TEST(CommBarrier, SynchronizesPhases) {
  // Each rank increments a counter, crosses the barrier, and checks that
  // every increment from the previous phase is visible.
  constexpr int kRanks = 8;
  constexpr int kPhases = 50;
  std::atomic<int> counter{0};
  std::atomic<bool> failed{false};
  Runtime::run(kRanks, [&](Comm& world) {
    for (int phase = 1; phase <= kPhases; ++phase) {
      counter.fetch_add(1, std::memory_order_relaxed);
      world.barrier();
      if (counter.load(std::memory_order_relaxed) < phase * kRanks) {
        failed.store(true);
      }
      world.barrier();
    }
  });
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(counter.load(), kRanks * kPhases);
}

TEST(CommBarrier, ManyReusesSameBarrier) {
  constexpr int kRanks = 4;
  std::atomic<long> sum{0};
  const auto report = Runtime::run(kRanks, [&](Comm& world) {
    for (int i = 0; i < 500; ++i) {
      sum.fetch_add(1, std::memory_order_relaxed);
      world.barrier();
    }
  });
  EXPECT_EQ(sum.load(), 500L * kRanks);
  for (const auto& rank : report.ranks) {
    EXPECT_EQ(rank.total().barrier_crossings, 500u);
  }
}

}  // namespace
}  // namespace drcm::mps
