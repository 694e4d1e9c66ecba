#include "util/parallel.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace sublet::par {
namespace {

// ------------------------------------------------- thread resolution ------

TEST(Threads, ResolveMapsZeroToProcessDefault) {
  EXPECT_EQ(resolve_threads(0), default_threads());
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(Threads, SetDefaultRoundTrips) {
  unsigned saved = default_threads();
  set_default_threads(3);
  EXPECT_EQ(default_threads(), 3u);
  EXPECT_EQ(resolve_threads(0), 3u);
  set_default_threads(0);  // 0 resets to hardware concurrency
  EXPECT_GE(default_threads(), 1u);
  set_default_threads(saved);
}

TEST(Threads, RecommendedChunkCoversRange) {
  EXPECT_EQ(recommended_chunk(0, 4), 1u);
  EXPECT_GE(recommended_chunk(1, 4), 1u);
  // The chunk size must never produce more pieces than 4x the thread
  // count (per-task overhead) and must always be at least 1.
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    std::size_t chunk = recommended_chunk(n, 4);
    ASSERT_GE(chunk, 1u);
    EXPECT_LE((n + chunk - 1) / chunk, std::size_t{4} * 4);
  }
}

// ------------------------------------------------------- ThreadPool ------

TEST(ThreadPool, SerialModeRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  pool.submit([&] { order.push_back(1); });
  pool.submit([&] { order.push_back(2); });
  pool.submit([&] { order.push_back(3); });
  // Inline mode: tasks ran during submit(), in submission order.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  pool.wait();
}

TEST(ThreadPool, ParallelModeRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 100);
  // wait() is reusable: the pool accepts more work afterwards.
  pool.submit([&] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 101);
}

// Each worker of a pool is bound to one CPU, and two workers running at the
// same time sit on different CPUs of the process's mask.
TEST(ThreadPool, WorkersArePinnedToDistinctAllowedCpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  if (CPU_COUNT(&allowed) < 2) GTEST_SKIP() << "needs two allowed CPUs";

  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::vector<cpu_set_t> masks;
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      cpu_set_t mine;
      CPU_ZERO(&mine);
      pthread_getaffinity_np(pthread_self(), sizeof(mine), &mine);
      std::unique_lock<std::mutex> lock(mu);
      masks.push_back(mine);
      // Hold this worker until the other task started on the other one.
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return started == 2; });
    });
  }
  pool.wait();
  ASSERT_EQ(masks.size(), 2u);
  for (cpu_set_t& mask : masks) {
    EXPECT_EQ(CPU_COUNT(&mask), 1);
    cpu_set_t inside;
    CPU_AND(&inside, &mask, &allowed);
    EXPECT_TRUE(CPU_EQUAL(&inside, &mask));
  }
  EXPECT_FALSE(CPU_EQUAL(&masks[0], &masks[1]));
}

// ------------------------------------------------------ parallel_for ------

void check_parallel_for(std::size_t n, std::size_t chunk, unsigned threads) {
  std::vector<std::atomic<int>> hits(n);
  parallel_for(
      n, chunk,
      [&](std::size_t begin, std::size_t end) {
        ASSERT_LE(begin, end);
        ASSERT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      },
      threads);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " covered "
                                 << hits[i].load() << " times";
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    check_parallel_for(0, 4, threads);    // empty range
    check_parallel_for(1, 4, threads);    // single element
    check_parallel_for(3, 100, threads);  // chunk larger than range
    check_parallel_for(1000, 7, threads);
  }
}

TEST(ParallelFor, PropagatesFirstException) {
  for (unsigned threads : {1u, 4u}) {
    EXPECT_THROW(
        parallel_for(
            100, 10,
            [](std::size_t begin, std::size_t) {
              if (begin >= 50) throw std::runtime_error("boom");
            },
            threads),
        std::runtime_error);
  }
}

// ------------------------------------------------------ parallel_map ------

TEST(ParallelMap, PreservesInputOrder) {
  std::vector<int> items(500);
  std::iota(items.begin(), items.end(), 0);
  for (unsigned threads : {1u, 2u, 8u}) {
    auto out = parallel_map(
        items, [](const int& v) { return std::to_string(v * 2); }, threads);
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], std::to_string(static_cast<int>(i) * 2));
    }
  }
}

TEST(ParallelMap, HandlesEmptyAndSingle) {
  std::vector<int> empty;
  EXPECT_TRUE(parallel_map(empty, [](const int& v) { return v; }, 8).empty());
  std::vector<int> one{42};
  auto out = parallel_map(one, [](const int& v) { return v + 1; }, 8);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 43);
}

// Move-only results must work: WhoisDb (no default constructor, move-only
// in practice) flows through parallel_map in the chunked WHOIS parser.
struct MoveOnly {
  explicit MoveOnly(int v) : value(v) {}
  MoveOnly(MoveOnly&&) = default;
  MoveOnly& operator=(MoveOnly&&) = default;
  MoveOnly(const MoveOnly&) = delete;
  int value;
};

TEST(ParallelMap, SupportsMoveOnlyNonDefaultConstructibleResults) {
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 0);
  for (unsigned threads : {1u, 4u}) {
    auto out = parallel_map(
        items, [](const int& v) { return MoveOnly(v); }, threads);
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].value, static_cast<int>(i));
    }
  }
}

TEST(ParallelMap, PropagatesException) {
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  for (unsigned threads : {1u, 4u}) {
    EXPECT_THROW(parallel_map(
                     items,
                     [](const int& v) {
                       if (v == 63) throw std::runtime_error("bad item");
                       return v;
                     },
                     threads),
                 std::runtime_error);
  }
}

// --------------------------------------------------------- TaskGroup ------

TEST(TaskGroup, RunsHeterogeneousTasks) {
  for (unsigned threads : {1u, 4u}) {
    TaskGroup group(threads);
    std::atomic<int> sum{0};
    int a = 0;
    std::string b;
    group.run([&] { a = 7; });
    group.run([&] { b = "done"; });
    for (int i = 0; i < 20; ++i) group.run([&] { ++sum; });
    group.wait();
    EXPECT_EQ(a, 7);
    EXPECT_EQ(b, "done");
    EXPECT_EQ(sum.load(), 20);
  }
}

TEST(TaskGroup, WaitWithZeroTasksIsNoOp) {
  TaskGroup group(4);
  group.wait();
}

TEST(TaskGroup, PropagatesFirstException) {
  for (unsigned threads : {1u, 4u}) {
    TaskGroup group(threads);
    std::atomic<int> completed{0};
    group.run([&] { ++completed; });
    group.run([] { throw std::runtime_error("task failed"); });
    group.run([&] { ++completed; });
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(completed.load(), 2);
  }
}

TEST(TaskGroup, DestructorJoinsOutstandingTasks) {
  // Tasks capture a local by reference; the destructor must join before
  // the local goes out of scope even when wait() is never called.
  std::atomic<int> count{0};
  {
    TaskGroup group(4);
    for (int i = 0; i < 16; ++i) group.run([&] { ++count; });
  }
  EXPECT_EQ(count.load(), 16);
}

}  // namespace
}  // namespace sublet::par
