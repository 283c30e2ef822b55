// Tests for the real threaded StarSs-style runtime: dependency ordering
// (RAW/WAR/WAW/RAR), concurrency, nested submission, exceptions, barriers,
// and randomized stress against expected serial results.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace nexuspp {
namespace {

using starss::Access;
using starss::Runtime;

TEST(Runtime, RunsASingleTask) {
  Runtime rt(2);
  int x = 0;
  rt.submit([&x] { x = 42; }, {starss::out(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 42);
  EXPECT_EQ(rt.stats().executed, 1u);
}

TEST(Runtime, RawOrdering) {
  Runtime rt(4);
  int a = 0;
  int b = 0;
  // The producer holds until the consumer is submitted: a RAW edge only
  // exists against an unfinished writer, so without the gate the hazard
  // count would depend on how fast the producer runs.
  std::atomic<bool> consumer_submitted{false};
  rt.submit(
      [&a, &consumer_submitted] {
        while (!consumer_submitted.load()) std::this_thread::yield();
        a = 7;
      },
      {starss::out(&a)});
  rt.submit([&a, &b] { b = a * 2; }, {starss::in(&a), starss::out(&b)});
  consumer_submitted.store(true);
  rt.wait_all();
  EXPECT_EQ(b, 14);
  EXPECT_EQ(rt.stats().raw_hazards, 1u);
}

TEST(Runtime, ChainOfHundredTasks) {
  Runtime rt(4);
  long value = 0;
  for (int i = 0; i < 100; ++i) {
    rt.submit([&value] { value += 1; }, {starss::inout(&value)});
  }
  rt.wait_all();
  EXPECT_EQ(value, 100);
}

TEST(Runtime, ConcurrentReadersActuallyOverlap) {
  Runtime rt(4);
  int shared = 5;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> sum{0};
  for (int i = 0; i < 8; ++i) {
    rt.submit(
        [&] {
          const int now = concurrent.fetch_add(1) + 1;
          int expected = peak.load();
          while (expected < now &&
                 !peak.compare_exchange_weak(expected, now)) {
          }
          // Busy-wait long enough for overlap to be observable.
          const auto start = std::chrono::steady_clock::now();
          while (std::chrono::steady_clock::now() - start <
                 std::chrono::milliseconds(5)) {
          }
          sum.fetch_add(shared);
          concurrent.fetch_sub(1);
        },
        {starss::in(&shared)});
  }
  rt.wait_all();
  EXPECT_EQ(sum.load(), 40);
  EXPECT_GE(peak.load(), 2) << "readers were serialized";
}

TEST(Runtime, WarWriterWaitsForReaders) {
  Runtime rt(4);
  int data = 10;
  std::atomic<int> reads_done{0};
  std::vector<int> observed(3, -1);
  // Every reader holds until the writer is submitted: the WAR edge only
  // exists against unfinished readers, so without the gate the hazard
  // count would depend on how fast the readers run.
  std::atomic<bool> writer_submitted{false};
  for (int i = 0; i < 3; ++i) {
    rt.submit(
        [&data, &observed, &reads_done, &writer_submitted, i] {
          observed[static_cast<std::size_t>(i)] = data;
          while (!writer_submitted.load()) std::this_thread::yield();
          reads_done.fetch_add(1);
        },
        {starss::in(&data)});
  }
  int readers_before_write = -1;
  rt.submit(
      [&data, &reads_done, &readers_before_write] {
        readers_before_write = reads_done.load();
        data = 99;
      },
      {starss::inout(&data)});
  writer_submitted.store(true);
  rt.wait_all();
  EXPECT_EQ(readers_before_write, 3);  // all readers finished first
  for (int v : observed) EXPECT_EQ(v, 10);
  EXPECT_EQ(data, 99);
  // All three readers were unfinished at writer-submit time.
  EXPECT_EQ(rt.stats().war_hazards, 3u);
}

TEST(Runtime, WawKeepsWriteOrder) {
  Runtime rt(4);
  int x = 0;
  std::vector<int> order;
  std::mutex m;
  // The first writer holds until every writer is submitted: a WAW edge
  // only exists against an unfinished writer, so without the gate the
  // hazard count would depend on how fast the first tasks run.
  std::atomic<bool> all_submitted{false};
  for (int i = 1; i <= 5; ++i) {
    rt.submit(
        [&x, &order, &m, &all_submitted, i] {
          if (i == 1) {
            while (!all_submitted.load()) std::this_thread::yield();
          }
          x = i;
          std::lock_guard lock(m);
          order.push_back(i);
        },
        {starss::out(&x)});
  }
  all_submitted.store(true);
  rt.wait_all();
  EXPECT_EQ(x, 5);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_GE(rt.stats().waw_hazards, 4u);
}

TEST(Runtime, DiamondDataflow) {
  Runtime rt(4);
  int a = 0;
  int b = 0;
  int c = 0;
  int d = 0;
  rt.submit([&a] { a = 1; }, {starss::out(&a)});
  rt.submit([&a, &b] { b = a + 10; }, {starss::in(&a), starss::out(&b)});
  rt.submit([&a, &c] { c = a + 100; }, {starss::in(&a), starss::out(&c)});
  rt.submit([&b, &c, &d] { d = b + c; },
            {starss::in(&b), starss::in(&c), starss::out(&d)});
  rt.wait_all();
  EXPECT_EQ(d, 112);
}

TEST(Runtime, IndependentTasksUseMultipleThreads) {
  Runtime rt(4);
  std::atomic<unsigned> concurrent{0};
  std::atomic<unsigned> peak{0};
  std::vector<int> cells(16, 0);
  for (int i = 0; i < 16; ++i) {
    rt.submit(
        [&, i] {
          const unsigned now = concurrent.fetch_add(1) + 1;
          unsigned expected = peak.load();
          while (expected < now &&
                 !peak.compare_exchange_weak(expected, now)) {
          }
          const auto start = std::chrono::steady_clock::now();
          while (std::chrono::steady_clock::now() - start <
                 std::chrono::milliseconds(3)) {
          }
          cells[static_cast<std::size_t>(i)] = i;
          concurrent.fetch_sub(1);
        },
        {starss::out(&cells[static_cast<std::size_t>(i)])});
  }
  rt.wait_all();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(cells[static_cast<std::size_t>(i)], i);
  EXPECT_GE(peak.load(), 2u);
  EXPECT_GE(rt.stats().max_concurrency, 2u);
}

TEST(Runtime, NestedSubmissionFromTaskBody) {
  Runtime rt(2);
  int x = 0;
  int y = 0;
  rt.submit(
      [&rt, &x, &y] {
        x = 5;
        rt.submit([&x, &y] { y = x * 3; },
                  {starss::in(&x), starss::out(&y)});
      },
      {starss::out(&x)});
  rt.wait_all();
  EXPECT_EQ(y, 15);
}

TEST(Runtime, WaitAllIsReusableBarrier) {
  Runtime rt(2);
  int x = 0;
  rt.submit([&x] { x = 1; }, {starss::inout(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 1);
  rt.submit([&x] { x = 2; }, {starss::inout(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 2);
  rt.wait_all();  // idempotent when idle
}

TEST(Runtime, TaskExceptionSurfacesAtWaitAll) {
  Runtime rt(2);
  int x = 0;
  rt.submit([] { throw std::runtime_error("task failed"); }, {});
  rt.submit([&x] { x = 1; }, {starss::out(&x)});
  EXPECT_THROW(rt.wait_all(), std::runtime_error);
  // The runtime stays usable afterwards.
  rt.submit([&x] { x = 2; }, {starss::inout(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 2);
}

TEST(Runtime, RejectsBadSubmissions) {
  Runtime rt(1);
  EXPECT_THROW(rt.submit(nullptr, {}), std::invalid_argument);
  int x = 0;
  EXPECT_THROW(
      rt.submit([] {}, {Access{nullptr, 4, core::AccessMode::kIn}}),
      std::invalid_argument);
  EXPECT_THROW(rt.submit([] {}, {Access{&x, 0, core::AccessMode::kIn}}),
               std::invalid_argument);
}

TEST(Runtime, ParameterlessTasksRunUnordered) {
  Runtime rt(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    rt.submit([&count] { count.fetch_add(1); }, {});
  }
  rt.wait_all();
  EXPECT_EQ(count.load(), 50);
}

TEST(Runtime, DefaultsToHardwareConcurrency) {
  Runtime rt;
  EXPECT_GE(rt.thread_count(), 1u);
}

// Wavefront stress: computes the H.264-style recurrence over a grid with
// tasks and compares against the serial result. Parameterized over thread
// counts and grid sizes.
class RuntimeWavefront
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(RuntimeWavefront, MatchesSerialReference) {
  const unsigned threads = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  const auto idx = [n](int i, int j) {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(j);
  };

  // Serial reference: v(i,j) = 1 + left + upright.
  std::vector<long> ref(static_cast<std::size_t>(n) * n, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const long left = j > 0 ? ref[idx(i, j - 1)] : 0;
      const long upright = (i > 0 && j + 1 < n) ? ref[idx(i - 1, j + 1)] : 0;
      ref[idx(i, j)] = 1 + left + upright;
    }
  }

  std::vector<long> grid(static_cast<std::size_t>(n) * n, 0);
  Runtime rt(threads);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      std::vector<Access> acc;
      if (j > 0) acc.push_back(starss::in(&grid[idx(i, j - 1)]));
      if (i > 0 && j + 1 < n) {
        acc.push_back(starss::in(&grid[idx(i - 1, j + 1)]));
      }
      acc.push_back(starss::inout(&grid[idx(i, j)]));
      rt.submit(
          [&grid, idx, i, j, n] {
            const long left = j > 0 ? grid[idx(i, j - 1)] : 0;
            const long upright =
                (i > 0 && j + 1 < n) ? grid[idx(i - 1, j + 1)] : 0;
            grid[idx(i, j)] = 1 + left + upright;
          },
          std::move(acc));
    }
  }
  rt.wait_all();
  EXPECT_EQ(grid, ref);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSizes, RuntimeWavefront,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(4, 9, 16)));

// Randomized stress: tasks mutate a small set of counters with random
// access modes; the dependency semantics guarantee the same final state as
// serial execution in submission order.
class RuntimeRandomStress : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RuntimeRandomStress, EquivalentToSerialExecution) {
  util::Rng rng(GetParam());
  constexpr int kCells = 6;
  constexpr int kTasks = 400;

  struct Op {
    int target;
    int source;
    bool add;  // add source cell value (reads source), else increment
  };
  std::vector<Op> ops;
  ops.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    Op op;
    op.target = static_cast<int>(rng.below(kCells));
    op.source = static_cast<int>(rng.below(kCells));
    op.add = rng.chance(0.5) && op.source != op.target;
    ops.push_back(op);
  }

  // Serial reference.
  std::vector<long> ref(kCells, 1);
  for (const auto& op : ops) {
    if (op.add) {
      ref[static_cast<std::size_t>(op.target)] +=
          ref[static_cast<std::size_t>(op.source)];
    } else {
      ref[static_cast<std::size_t>(op.target)] += 1;
    }
  }

  std::vector<long> cells(kCells, 1);
  Runtime rt(4);
  for (const auto& op : ops) {
    long* target = &cells[static_cast<std::size_t>(op.target)];
    if (op.add) {
      long* source = &cells[static_cast<std::size_t>(op.source)];
      rt.submit([target, source] { *target += *source; },
                {starss::inout(target), starss::in(source)});
    } else {
      rt.submit([target] { *target += 1; }, {starss::inout(target)});
    }
  }
  rt.wait_all();
  EXPECT_EQ(cells, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeRandomStress,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Runtime, WaitOnBlocksForWriter) {
  Runtime rt(2);
  int slow = 0;
  int fast = 0;
  std::atomic<bool> slow_done{false};
  rt.submit(
      [&slow, &slow_done] {
        const auto start = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - start <
               std::chrono::milliseconds(10)) {
        }
        slow = 1;
        slow_done.store(true);
      },
      {starss::out(&slow)});
  rt.submit([&fast] { fast = 1; }, {starss::out(&fast)});

  rt.wait_on(&slow);
  EXPECT_TRUE(slow_done.load());
  EXPECT_EQ(slow, 1);
  rt.wait_all();
}

TEST(Runtime, WaitOnUntrackedAddressReturnsImmediately) {
  Runtime rt(2);
  int x = 0;
  rt.wait_on(&x);  // never accessed: no-op
  rt.submit([&x] { x = 1; }, {starss::out(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 1);
}

TEST(Runtime, WaitOnDoesNotWaitForLaterTasks) {
  Runtime rt(2);
  int x = 0;
  rt.submit([&x] { x = 1; }, {starss::out(&x)});
  rt.wait_on(&x);
  const int seen = x;
  EXPECT_EQ(seen, 1);
  // A task submitted after wait_on is not part of that wait.
  rt.submit([&x] { x = 2; }, {starss::out(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 2);
}

}  // namespace
}  // namespace nexuspp
