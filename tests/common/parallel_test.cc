#include "common/parallel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.h"

namespace rlbench {
namespace {

// Sum of f over [0, n) in ascending order — the serial reference for the
// reduction invariance tests.
double SerialSum(size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += std::sin(static_cast<double>(i)) * std::sqrt(i + 1.0);
  }
  return sum;
}

double ParallelSum(size_t n, size_t grain) {
  return ParallelReduce(
      0, n, grain, 0.0,
      [](size_t first, size_t last, size_t /*chunk*/) {
        double partial = 0.0;
        for (size_t i = first; i < last; ++i) {
          partial += std::sin(static_cast<double>(i)) * std::sqrt(i + 1.0);
        }
        return partial;
      },
      [](double acc, double partial) { return acc + partial; });
}

TEST(ParallelChunkingTest, CountAndBoundsTileTheRange) {
  EXPECT_EQ(ParallelChunkCount(0, 10, 3), 4U);
  EXPECT_EQ(ParallelChunkCount(0, 9, 3), 3U);
  EXPECT_EQ(ParallelChunkCount(5, 6, 100), 1U);
  EXPECT_EQ(ParallelChunkCount(7, 7, 3), 0U);

  // Chunks must tile [begin, end) exactly, in order, with only the tail
  // short — this is the fixed geometry the determinism contract rests on.
  size_t begin = 13, end = 113, grain = 7;
  size_t chunks = ParallelChunkCount(begin, end, grain);
  size_t cursor = begin;
  for (size_t c = 0; c < chunks; ++c) {
    auto [first, last] = ParallelChunkBounds(begin, end, grain, c);
    EXPECT_EQ(first, cursor);
    EXPECT_LE(last, end);
    EXPECT_EQ(last - first, c + 1 < chunks ? grain : end - cursor);
    cursor = last;
  }
  EXPECT_EQ(cursor, end);
}

TEST(ParallelForTest, EmptyRangeIsNoOp) {
  int calls = 0;
  ParallelFor(5, 5, 4, [&](size_t) { ++calls; });
  ParallelFor(9, 3, 4, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  double result = ParallelReduce(
      4, 4, 2, 42.0,
      [](size_t, size_t, size_t) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(result, 42.0);
}

TEST(ParallelForTest, GrainLargerThanRangeVisitsEverything) {
  std::vector<int> counts(17, 0);
  ParallelFor(0, counts.size(), 1000, [&](size_t i) { ++counts[i]; });
  for (int count : counts) EXPECT_EQ(count, 1);
}

TEST(ParallelForTest, EveryIndexVisitedExactlyOnce) {
  SetParallelThreads(7);
  std::vector<int> counts(10000, 0);
  ParallelFor(0, counts.size(), 64, [&](size_t i) { ++counts[i]; });
  for (int count : counts) ASSERT_EQ(count, 1);
  SetParallelThreads(0);
}

TEST(ParallelForTest, ExceptionPropagatesAndPoolSurvives) {
  SetParallelThreads(4);
  auto boom = [] {
    ParallelFor(0, 1000, 16, [&](size_t i) {
      if (i == 637) throw std::runtime_error("chunk failure");
    });
  };
  EXPECT_THROW(boom(), std::runtime_error);
  // The pool must stay usable after a failed job.
  std::vector<int> counts(100, 0);
  ParallelFor(0, counts.size(), 8, [&](size_t i) { ++counts[i]; });
  for (int count : counts) EXPECT_EQ(count, 1);
  EXPECT_FALSE(InParallelRegion());
  SetParallelThreads(0);
}

TEST(ParallelForTest, NestedCallsAreRejectedFromPoolAndRunInline) {
  SetParallelThreads(4);
  constexpr size_t kOuter = 4;
  constexpr size_t kInner = 8;
  std::vector<std::thread::id> outer_thread(kOuter);
  std::vector<std::vector<std::thread::id>> inner_thread(
      kOuter, std::vector<std::thread::id>(kInner));
  std::vector<std::vector<int>> inner_counts(kOuter,
                                             std::vector<int>(kInner, 0));
  std::vector<uint8_t> saw_region_flag(kOuter, 0);

  EXPECT_FALSE(InParallelRegion());
  ParallelFor(0, kOuter, 1, [&](size_t i) {
    outer_thread[i] = std::this_thread::get_id();
    saw_region_flag[i] = InParallelRegion() ? 1 : 0;
    ParallelFor(0, kInner, 2, [&](size_t j) {
      inner_thread[i][j] = std::this_thread::get_id();
      ++inner_counts[i][j];
    });
  });
  EXPECT_FALSE(InParallelRegion());

  for (size_t i = 0; i < kOuter; ++i) {
    EXPECT_EQ(saw_region_flag[i], 1) << "outer body not marked in-region";
    for (size_t j = 0; j < kInner; ++j) {
      // The nested loop still visits every index exactly once...
      EXPECT_EQ(inner_counts[i][j], 1);
      // ...but serially, on the worker that owns the outer iteration.
      EXPECT_EQ(inner_thread[i][j], outer_thread[i]);
    }
  }
  SetParallelThreads(0);
}

TEST(ParallelReduceTest, ResultIsBitIdenticalAcrossThreadCounts) {
  constexpr size_t kN = 20000;
  constexpr size_t kGrain = 128;
  std::vector<double> sums;
  for (size_t threads : {1, 2, 7}) {
    SetParallelThreads(threads);
    sums.push_back(ParallelSum(kN, kGrain));
  }
  SetParallelThreads(0);
  // Exact double equality: the fixed chunk boundaries + ordered combine
  // make the floating-point grouping independent of the thread count.
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[0], sums[2]);
  // And the single-chunk (grain > n) grouping matches the serial loop.
  EXPECT_EQ(ParallelSum(kN, kN), SerialSum(kN));
}

TEST(ParallelReduceTest, IntegerSumIsExact) {
  constexpr size_t kN = 9999;
  SetParallelThreads(7);
  auto sum = ParallelReduce(
      0, kN, 100, size_t{0},
      [](size_t first, size_t last, size_t) {
        size_t partial = 0;
        for (size_t i = first; i < last; ++i) partial += i;
        return partial;
      },
      [](size_t a, size_t b) { return a + b; });
  SetParallelThreads(0);
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

TEST(SplitSeedTest, StreamsAreDeterministicAndIndependent) {
  constexpr uint64_t kBase = 0xFEEDFACEULL;
  // Deterministic: same (base, index) -> same stream.
  EXPECT_EQ(SplitSeed(kBase, 3), SplitSeed(kBase, 3));
  // Distinct indices (and bases) get distinct seeds.
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 1000; ++i) seeds.insert(SplitSeed(kBase, i));
  EXPECT_EQ(seeds.size(), 1000U);
  EXPECT_NE(SplitSeed(kBase, 0), SplitSeed(kBase + 1, 0));

  // Independence: chunk 1's draws do not depend on how much chunk 0
  // consumed — the property the per-chunk RNG measures (n4, l3) rely on.
  Rng heavy(SplitSeed(kBase, 0));
  for (int i = 0; i < 1000; ++i) heavy.Uniform();
  Rng stream_a(SplitSeed(kBase, 1));
  Rng stream_b(SplitSeed(kBase, 1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(stream_a.UniformInt(0, 1 << 30), stream_b.UniformInt(0, 1 << 30));
  }
}

TEST(ParallelConfigTest, SetParallelThreadsOverridesAndRestores) {
  SetParallelThreads(3);
  EXPECT_EQ(ParallelThreadCount(), 3U);
  // Work is still correct after a resize.
  std::vector<int> counts(500, 0);
  ParallelFor(0, counts.size(), 10, [&](size_t i) { ++counts[i]; });
  for (int count : counts) EXPECT_EQ(count, 1);
  SetParallelThreads(0);
  EXPECT_GE(ParallelThreadCount(), 1U);
}

// Exit code of a child that ran `child` after fork(); -1 if it did not
// exit normally within the deadline (killed and reaped here).
int RunInForkedChild(int (*child)()) {
  pid_t pid = fork();
  if (pid == 0) _exit(child());
  if (pid < 0) return -1;
  int status = 0;
  for (int waited_ms = 0; waited_ms < 30000; waited_ms += 10) {
    if (waitpid(pid, &status, WNOHANG) == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    usleep(10 * 1000);
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
  return -1;
}

// 0 when ParallelFor touches every index exactly once.
int CountOnceOrFail() {
  std::vector<int> counts(2000, 0);
  ParallelFor(0, counts.size(), 7, [&](size_t i) { ++counts[i]; });
  for (int count : counts) {
    if (count != 1) return 2;
  }
  return 0;
}

TEST(ParallelForkTest, ChildOfABusyPoolCanResizeAndRunIt) {
#if defined(__SANITIZE_THREAD__)
  // ThreadSanitizer kills a child that starts threads after a fork of a
  // multi-threaded process; the ASan/UBSan and plain builds run this.
  GTEST_SKIP() << "ThreadSanitizer does not support threads after fork";
#endif
  // Regression: the child inherited the parent's worker handles, and
  // SetParallelThreads joined threads that do not exist after fork().
  SetParallelThreads(4);
  ASSERT_EQ(CountOnceOrFail(), 0);  // workers are running now
  EXPECT_EQ(RunInForkedChild([] {
              SetParallelThreads(3);
              return CountOnceOrFail();
            }),
            0);
  // Same width in the child: the pool relaunches its workers lazily.
  EXPECT_EQ(RunInForkedChild([] { return CountOnceOrFail(); }), 0);
  // The parent's pool is unaffected by the forks.
  EXPECT_EQ(CountOnceOrFail(), 0);
  SetParallelThreads(0);
}

}  // namespace
}  // namespace rlbench
