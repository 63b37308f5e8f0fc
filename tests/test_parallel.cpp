// ThreadPool unit tests: lifecycle, full index coverage, deterministic
// static chunking, exception propagation, the nested-submit deadlock
// guard, and a mixed-size stress run.
#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace plos::parallel {
namespace {

TEST(ResolveNumThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolve_num_threads(0), 1u);
}

TEST(ResolveNumThreads, PositiveValuesAreLiteral) {
  EXPECT_EQ(resolve_num_threads(1), 1u);
  EXPECT_EQ(resolve_num_threads(7), 7u);
  // Oversubscription beyond the hardware count is allowed.
  EXPECT_EQ(resolve_num_threads(64), 64u);
}

TEST(ThreadPool, StartupShutdown) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), static_cast<std::size_t>(threads));
  }
  // Default-constructed = hardware concurrency; destruction joins cleanly
  // even when the pool never ran a task.
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t i) {
        ASSERT_LT(i, n);
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads, n=" << n;
      }
    }
  }
}

TEST(ThreadPool, StaticChunkingIsContiguousAndAscending) {
  // The contract fixes the index→chunk map, not a thread→range map: chunk k
  // is [k·n/T, (k+1)·n/T) and runs start to finish on one thread in
  // ascending order, chunk 0 on the caller. Which worker picks up which
  // other chunk is scheduling, so one worker may run several chunks.
  constexpr std::size_t kThreads = 4;
  ThreadPool pool(kThreads);
  constexpr std::size_t kN = 103;  // not a multiple of the thread count
  std::vector<std::thread::id> owner(kN);
  std::vector<std::int64_t> order(kN);
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<std::int64_t> clock{0};
  pool.parallel_for(kN, [&](std::size_t i) {
    owner[i] = std::this_thread::get_id();
    order[i] = clock.fetch_add(1, std::memory_order_relaxed);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  // The chunks cover [0, n) exactly: every index runs once.
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  for (std::size_t k = 0; k < kThreads; ++k) {
    const std::size_t begin = k * kN / kThreads;
    const std::size_t end = (k + 1) * kN / kThreads;
    ASSERT_LT(begin, end);
    if (k == 0) {
      EXPECT_EQ(owner[begin], std::this_thread::get_id())
          << "chunk 0 must run on the calling thread";
    }
    for (std::size_t i = begin + 1; i < end; ++i) {
      EXPECT_EQ(owner[i], owner[begin])
          << "chunk " << k << " split across threads at index " << i;
      EXPECT_LT(order[i - 1], order[i])
          << "chunk " << k << " not ascending at index " << i;
    }
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a failed loop and keeps working.
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, LowestChunkExceptionWins) {
  // Both chunk 0 (caller) and a worker chunk throw; the caller must see the
  // lowest chunk's exception deterministically.
  ThreadPool pool(2);
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("chunk0");
      if (i == 99) throw std::logic_error("chunk1");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk0");
  }
}

TEST(ThreadPool, SubmitRunsTaskAndPropagatesException) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran.store(true); }).get();
  EXPECT_TRUE(ran.load());
  auto failing = pool.submit([] { throw std::invalid_argument("bad"); });
  EXPECT_THROW(failing.get(), std::invalid_argument);
}

TEST(ThreadPool, NestedParallelForFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_sum{0};
  // The outer task occupies the only worker; the nested parallel_for must
  // detect re-entry and run inline instead of waiting on itself.
  auto future = pool.submit([&] {
    pool.parallel_for(50, [&](std::size_t i) {
      inner_sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    // Nested submit likewise runs inline; waiting on it must not hang.
    pool.submit([&] { inner_sum.fetch_add(1000); }).get();
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  future.get();
  EXPECT_EQ(inner_sum.load(), 50 * 49 / 2 + 1000);
}

TEST(ThreadPool, ConcurrentParallelForFromSeveralCallers) {
  // Two external threads drive the same pool at once; per-call bookkeeping
  // must stay independent.
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  auto drive = [&] {
    for (int round = 0; round < 20; ++round) {
      pool.parallel_for(64, [&](std::size_t i) {
        total.fetch_add(static_cast<std::int64_t>(i),
                        std::memory_order_relaxed);
      });
    }
  };
  std::thread a(drive), b(drive);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 20 * (64 * 63 / 2));
}

TEST(ThreadPool, StressMixedTaskSizes) {
  ThreadPool pool(8);
  std::int64_t expected = 0;
  std::atomic<std::int64_t> actual{0};
  for (std::size_t n : {std::size_t{1},   std::size_t{7},  std::size_t{512},
                        std::size_t{3},   std::size_t{97}, std::size_t{1024},
                        std::size_t{256}, std::size_t{2},  std::size_t{33}}) {
    for (int repeat = 0; repeat < 5; ++repeat) {
      expected += static_cast<std::int64_t>(n * (n - 1) / 2);
      pool.parallel_for(n, [&](std::size_t i) {
        // Mixed-size busywork so chunks finish at staggered times.
        volatile double sink = 0.0;
        for (std::size_t k = 0; k < (i % 17) * 50; ++k) {
          sink = sink + static_cast<double>(k);
        }
        actual.fetch_add(static_cast<std::int64_t>(i),
                         std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(actual.load(), expected);
}

}  // namespace
}  // namespace plos::parallel
