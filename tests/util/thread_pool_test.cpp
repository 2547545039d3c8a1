#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace xh {
namespace {

// There is no hardware-concurrency default: a pool needs at least the
// drain() caller's lane.
TEST(ThreadPool, ZeroLanesIsRejected) {
  EXPECT_THROW(ThreadPool{0}, std::invalid_argument);
}

// Fewer tasks than workers: the idle workers must not keep drain() waiting,
// and drain() must not return before the busy ones finish.
TEST(ThreadPool, FewerItemsThanLanesStillCoversAll) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    pool.post([&hits, i] { hits[i].fetch_add(1, std::memory_order_relaxed); });
  }
  pool.drain();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

// One failing task among many: drain() rethrows it after every task has run,
// and the pool stays usable.
TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  for (std::size_t i = 0; i < 1'000; ++i) {
    pool.post([&ran, i] {
      if (i == 2) throw std::runtime_error("task failure");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(pool.drain(), std::runtime_error);
  EXPECT_EQ(ran.load(), 999u);
  std::atomic<std::size_t> total{0};
  for (int i = 0; i < 100; ++i) {
    pool.post([&total] { total.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.drain();
  EXPECT_EQ(total.load(), 100u);
}

// Alternating failing and clean batches, so a captured exception that
// drain() failed to clear, or a stale in-flight count, surfaces at once.
TEST(ThreadPool, ReuseAfterDrainAlternatingFailures) {
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    ThreadPool pool(lanes);
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 100; ++i) {
        pool.post([i] {
          if (i % 2 == 0) throw std::runtime_error("boom");
        });
      }
      EXPECT_THROW(pool.drain(), std::runtime_error)
          << "lanes " << lanes << " round " << round;
      std::vector<std::atomic<int>> hits(97);
      for (std::size_t i = 0; i < hits.size(); ++i) {
        pool.post(
            [&hits, i] { hits[i].fetch_add(1, std::memory_order_relaxed); });
      }
      pool.drain();
      for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "lanes " << lanes << " round " << round << " index " << i;
      }
    }
  }
}

// Draining an empty queue is a no-op and leaves the pool reusable.
TEST(ThreadPool, EmptyJobThenReuse) {
  ThreadPool pool(4);
  pool.drain();
  std::atomic<std::size_t> total{0};
  for (int i = 0; i < 64; ++i) {
    pool.post([&total] { total.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.drain();
  EXPECT_EQ(total.load(), 64u);
}

// The single-lane pool (no workers) follows the same drain-and-reuse
// contract as the threaded configurations, and keeps the exception type.
TEST(ThreadPool, SingleLaneExceptionThenReuse) {
  ThreadPool pool(1);
  pool.post([] { throw std::logic_error("first task"); });
  EXPECT_THROW(pool.drain(), std::logic_error);
  std::size_t visited = 0;
  for (int i = 0; i < 10; ++i) {
    pool.post([&visited] { ++visited; });  // single lane: no atomics needed
  }
  pool.drain();
  EXPECT_EQ(visited, 10u);
}

// A submitted task that throws must not wedge drain() or shutdown — the
// exception is captured and rethrown on the drain() caller, and the pool
// stays fully usable afterwards.
TEST(ThreadPool, ThrowingTaskSurfacesAtDrainAndPoolSurvives) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  pool.post([&] { ran.fetch_add(1); });
  pool.post([&] { throw std::runtime_error("task boom"); });
  pool.post([&] { ran.fetch_add(1); });
  EXPECT_THROW(pool.drain(), std::runtime_error);
  EXPECT_EQ(ran.load(), 2);  // the throwing task never skipped its peers

  // The error was consumed: later batches drain cleanly on the same workers.
  pool.post([&] { ran.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(ran.load(), 3);
  for (int i = 0; i < 64; ++i) pool.post([&] { ran.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(ran.load(), 67);
}

// With no workers at all, drain() itself executes the queue — including
// the throwing task — and still rethrows exactly once.
TEST(ThreadPool, SingleLaneSubmitDrainRunsOnCaller) {
  ThreadPool pool(1);
  int ran = 0;
  pool.post([&] { ++ran; });
  pool.post([] { throw std::runtime_error("serial boom"); });
  pool.post([&] { ++ran; });
  EXPECT_EQ(pool.pending_tasks(), 3u);  // nothing runs before drain
  EXPECT_THROW(pool.drain(), std::runtime_error);
  EXPECT_EQ(ran, 2);
  pool.drain();  // error cleared; empty drain is a no-op
}

// Destructor with queued-but-unstarted tasks must not hang or run them.
TEST(ThreadPool, DestructorDiscardsUnstartedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);  // no workers: submitted tasks can never start
    for (int i = 0; i < 8; ++i) pool.post([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, ManyTasksAllExecuteAcrossWorkers) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) pool.post([&] { ran.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(ran.load(), 200);
}

// Fifty post-then-drain batches on one pool: each batch sees every one of
// its tasks and nothing left over from the previous one.
TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::uint64_t> sum{0};
    const std::uint64_t n = 257;
    for (std::uint64_t i = 0; i < n; ++i) {
      pool.post([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
    }
    pool.drain();
    EXPECT_EQ(sum.load(), n * (n - 1) / 2) << "job " << job;
  }
}

}  // namespace
}  // namespace xh
