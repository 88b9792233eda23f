// Scheduler layer: parallel_for coverage/exactness, nested behaviour,
// par_do fork-join, worker-count control, and timers.

#include <gtest/gtest.h>

#include <vector>

#include "parallel/atomics.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/timer.hpp"

namespace pcc::parallel {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{100}, size_t{100000}}) {
    std::vector<uint32_t> hits(n, 0);
    parallel_for(0, n, [&](size_t i) { fetch_add<uint32_t>(&hits[i], 1); }, 128);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1u) << i;
  }
}

TEST(ParallelFor, RespectsRangeBounds) {
  std::vector<uint32_t> hits(100, 0);
  parallel_for(10, 90, [&](size_t i) { hits[i] = 1; }, 8);
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(hits[i], (i >= 10 && i < 90) ? 1u : 0u);
  }
}

TEST(ParallelFor, EmptyAndReversedRanges) {
  size_t count = 0;
  parallel_for(5, 5, [&](size_t) { ++count; });
  parallel_for(7, 3, [&](size_t) { ++count; });
  EXPECT_EQ(count, 0u);
}

TEST(ParallelFor, NestedLoopsCompleteCorrectly) {
  // Inner loops run (serialized inside the outer region by design) and all
  // work lands exactly once.
  const size_t n = 200;
  std::vector<uint32_t> hits(n * n, 0);
  parallel_for(0, n, [&](size_t i) {
    parallel_for(0, n, [&](size_t j) {
      fetch_add<uint32_t>(&hits[i * n + j], 1);
    }, 16);
  }, 1);
  for (size_t k = 0; k < n * n; ++k) ASSERT_EQ(hits[k], 1u);
}

TEST(ParDo, BothBranchesRun) {
  int a = 0;
  int b = 0;
  par_do([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(ParDo, RecursiveDivideAndConquerSum) {
  // Sum 0..n-1 by binary splitting with par_do.
  const size_t n = 1 << 15;
  std::vector<uint64_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = i;
  struct rec {
    static uint64_t sum(const std::vector<uint64_t>& d, size_t lo, size_t hi) {
      if (hi - lo < 1024) {
        uint64_t s = 0;
        for (size_t i = lo; i < hi; ++i) s += d[i];
        return s;
      }
      const size_t mid = lo + (hi - lo) / 2;
      uint64_t left = 0;
      uint64_t right = 0;
      par_do([&] { left = sum(d, lo, mid); }, [&] { right = sum(d, mid, hi); });
      return left + right;
    }
  };
  EXPECT_EQ(rec::sum(data, 0, n), uint64_t{n} * (n - 1) / 2);
}

TEST(Workers, WorkerIdsAreInRangeAndStable) {
  // worker_id() must return a stable id in [0, num_workers()) — code that
  // partitions per-worker scratch relies on it.
  const int nw = num_workers();
  const size_t n = 1 << 16;
  std::vector<int> ids(n, -1);
  parallel_for(0, n, [&](size_t i) { ids[i] = worker_id(); }, 64);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_GE(ids[i], 0) << i;
    ASSERT_LT(ids[i], nw) << i;
  }
  // Two calls on the same thread agree (stability within a region).
  parallel_for(0, n, [&](size_t i) {
    const int a = worker_id();
    const int c = worker_id();
    if (a != c) ids[i] = -1;
  }, 64);
  for (size_t i = 0; i < n; ++i) ASSERT_NE(ids[i], -1) << i;
}

TEST(Workers, ScopedOverrideRestores) {
  const int before = num_workers();
  {
    scoped_workers guard(std::max(1, before - 1) + 1);
    EXPECT_EQ(num_workers(), std::max(1, before - 1) + 1);
  }
  EXPECT_EQ(num_workers(), before);
}

TEST(Workers, SetClampsToOne) {
  const int before = num_workers();
  set_num_workers(0);
  EXPECT_GE(num_workers(), 1);
  set_num_workers(before);
}

TEST(WorkersDeathTest, SetInsideParallelRegionAsserts) {
  // emit.hpp sizes per-worker staging at region entry, so the worker count
  // must not change inside a region; debug builds enforce it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  scoped_workers two(2);
  EXPECT_DEBUG_DEATH(par_do([] { set_num_workers(3); }, [] {}),
                     "set_num_workers inside a parallel region");
}

TEST(Timer, MeasuresElapsedMonotonically) {
  timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double e1 = t.elapsed();
  EXPECT_GE(e1, 0.0);
  const double lap = t.lap();
  EXPECT_GE(lap, e1);
  EXPECT_LT(t.elapsed(), lap + 1.0);  // restarted
}

TEST(PhaseTimer, AccumulatesAndMerges) {
  phase_timer a;
  a.add("x", 1.0);
  a.add("x", 0.5);
  a.add("y", 2.0);
  EXPECT_DOUBLE_EQ(a.get("x"), 1.5);
  EXPECT_DOUBLE_EQ(a.get("z"), 0.0);
  EXPECT_DOUBLE_EQ(a.total(), 3.5);

  phase_timer b;
  b.add("y", 1.0);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.get("y"), 3.0);
  b.clear();
  EXPECT_DOUBLE_EQ(b.total(), 0.0);
}

TEST(ScopedPhase, NullTimerIsNoOp) {
  scoped_phase p(nullptr, "anything");  // must not crash
  phase_timer pt;
  {
    scoped_phase q(&pt, "scoped");
  }
  EXPECT_GE(pt.get("scoped"), 0.0);
  EXPECT_TRUE(pt.phases().contains("scoped"));
}

}  // namespace
}  // namespace pcc::parallel
