// ThreadPool + ParallelMorsels contracts the parallel grounder depends
// on: work decomposition independent of scheduling, queue drain on
// shutdown, Status-based (exception-free) error propagation with a
// deterministic winner, and safety under many concurrent producers.
// ForkJoinTeam's contracts the level sweeps and the gradient depend on:
// every chunk runs exactly once, the caller finishes a phase with no
// helper available, and teardown drains helpers that never started.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "util/fork_join.h"
#include "util/parallel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dd {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitAllowsReuse) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 20);
  }
}

// Destroying the pool with tasks still queued must drain the queue, not
// drop it: no task the grounder submitted may silently vanish.
TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(10));
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Wait(): the destructor must finish the backlog itself.
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, ManyProducersStress) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  constexpr int kProducers = 8;
  constexpr int kTasksEach = 250;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(count.load(), kProducers * kTasksEach);
}

// The morsel decomposition is a pure function of (n, morsel_size):
// every thread count must produce exactly the same (index, begin, end)
// triples — the property the deterministic merge rule builds on.
TEST(ParallelMorselsTest, DecompositionIndependentOfThreadCount) {
  constexpr size_t kN = 103;
  constexpr size_t kMorsel = 10;
  auto decompose = [&](ThreadPool* pool) {
    std::vector<std::pair<size_t, size_t>> spans(NumMorsels(kN, kMorsel));
    Status st = ParallelMorsels(pool, kN, kMorsel,
                                [&](size_t m, size_t begin, size_t end) {
                                  spans[m] = {begin, end};
                                  return Status::OK();
                                });
    EXPECT_TRUE(st.ok());
    return spans;
  };
  auto serial = decompose(nullptr);
  ASSERT_EQ(serial.size(), 11u);
  EXPECT_EQ(serial.front(), (std::pair<size_t, size_t>{0, 10}));
  EXPECT_EQ(serial.back(), (std::pair<size_t, size_t>{100, 103}));
  for (size_t threads : {2, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(decompose(&pool), serial) << "threads=" << threads;
  }
}

TEST(ParallelMorselsTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  for (auto& v : visits) v.store(0);
  Status st = ParallelMorsels(&pool, kN, 7, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    }
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << "i=" << i;
}

// Errors travel as Status values, never exceptions, and the reported
// failure is the lowest-indexed failing morsel regardless of which
// worker finished first — so error output is reproducible.
TEST(ParallelMorselsTest, LowestIndexedErrorWins) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 10; ++attempt) {
    Status st = ParallelMorsels(&pool, 100, 10, [&](size_t m, size_t, size_t) {
      if (m == 7) return Status::Internal("late failure");
      if (m == 3) {
        // Make the earlier failure slower so a naive first-to-finish
        // implementation would report the wrong one.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return Status::InvalidArgument("early failure");
      }
      return Status::OK();
    });
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(st.message(), "early failure");
  }
}

// All morsels run even when one fails (no cancellation): the per-morsel
// buffers the grounder merges are always fully populated or the call
// errored — never a torn mix.
TEST(ParallelMorselsTest, AllMorselsRunDespiteFailure) {
  ThreadPool pool(4);
  constexpr size_t kMorsels = 20;
  std::vector<std::atomic<int>> ran(kMorsels);
  for (auto& r : ran) r.store(0);
  Status st = ParallelMorsels(&pool, kMorsels, 1, [&](size_t m, size_t, size_t) {
    ran[m].fetch_add(1, std::memory_order_relaxed);
    return m == 0 ? Status::Internal("boom") : Status::OK();
  });
  EXPECT_FALSE(st.ok());
  for (size_t m = 0; m < kMorsels; ++m) EXPECT_EQ(ran[m].load(), 1) << "m=" << m;
}

TEST(ParallelMorselsTest, InlineWhenPoolIsNull) {
  std::thread::id caller = std::this_thread::get_id();
  Status st = ParallelMorsels(nullptr, 50, 10, [&](size_t, size_t, size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
}

TEST(ParallelMorselsTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  Status st = ParallelMorsels(&pool, 0, 16, [&](size_t, size_t, size_t) {
    called = true;
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(called);
}

// WaitGroup from inside a pool task: the waiter must help drain the
// queue instead of parking, or a pool whose workers all wait on inner
// groups deadlocks. This is the discipline TaskGraph nodes rely on when
// they fan out morsels on the same pool.
TEST(ThreadPoolTest, NestedWaitGroupInsidePoolTask) {
  ThreadPool pool(2);
  std::atomic<int> inner_count{0};
  std::atomic<int> outer_count{0};
  TaskGroup outer;
  // More outer tasks than workers, each blocking on its own inner group:
  // without help-while-waiting the pool would starve immediately.
  for (int t = 0; t < 4; ++t) {
    pool.Submit(&outer, [&pool, &inner_count, &outer_count] {
      TaskGroup inner;
      for (int i = 0; i < 8; ++i) {
        pool.Submit(&inner, [&inner_count] {
          inner_count.fetch_add(1, std::memory_order_relaxed);
        });
      }
      pool.WaitGroup(&inner);
      outer_count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.WaitGroup(&outer);
  EXPECT_EQ(outer_count.load(), 4);
  EXPECT_EQ(inner_count.load(), 32);
}

TEST(ParallelForTest, CoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> visits(257);
  for (auto& v : visits) v.store(0);
  pool.ParallelFor(visits.size(), [&](size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < visits.size(); ++i) EXPECT_EQ(visits[i].load(), 1);
}

// ---- ForkJoinTeam ------------------------------------------------------

/// Holds every worker of a pool until Release(), so no helper can start.
class PoolBlocker {
 public:
  explicit PoolBlocker(ThreadPool* pool) : pool_(pool) {
    for (size_t i = 0; i < pool->num_threads(); ++i) {
      pool->Submit([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++blocked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      });
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ == pool->num_threads(); });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    pool_->Wait();
  }

 private:
  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t blocked_ = 0;
  bool released_ = false;
};

/// Runs phases of every shape on `team` and checks each item ran once,
/// on a member in range.
void ExpectEveryChunkOnce(ForkJoinTeam* team) {
  for (size_t n : {0, 1, 7, 64, 1000, 4099}) {
    for (size_t chunk : {1, 3, 64, 5000}) {
      std::vector<std::atomic<int>> visits(n);
      for (auto& v : visits) v.store(0);
      std::atomic<bool> member_in_range{true};
      team->Run(n, chunk, [&](size_t begin, size_t end, size_t member) {
        if (member >= team->max_members() || end - begin > chunk) {
          member_in_range.store(false);
        }
        for (size_t i = begin; i < end; ++i) {
          visits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "n=" << n << " chunk=" << chunk << " i=" << i;
      }
      EXPECT_TRUE(member_in_range.load());
    }
  }
}

TEST(ForkJoinTeamTest, EveryChunkRunsExactlyOnce) {
  ForkJoinTeam inline_team(nullptr);
  EXPECT_EQ(inline_team.max_members(), 1u);
  ExpectEveryChunkOnce(&inline_team);
  for (size_t threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    ForkJoinTeam team(&pool);
    EXPECT_EQ(team.max_members(), threads + 1);
    for (int round = 0; round < 20; ++round) ExpectEveryChunkOnce(&team);
  }
}

// Every worker is blocked, so no helper ever starts: the caller runs
// each phase alone, and the team's teardown runs the queued helpers
// (which see the stop and return) before the workers are released.
TEST(ForkJoinTeamTest, PhasesFinishWithZeroHelpersAvailable) {
  ThreadPool pool(3);
  PoolBlocker blocker(&pool);
  {
    ForkJoinTeam team(&pool);
    std::atomic<size_t> by_helpers{0};
    for (int round = 0; round < 5; ++round) {
      ExpectEveryChunkOnce(&team);
      team.Run(100, 10, [&](size_t begin, size_t end, size_t member) {
        if (member != 0) by_helpers.fetch_add(end - begin);
      });
    }
    EXPECT_EQ(by_helpers.load(), 0u);
  }
  blocker.Release();
}

TEST(ForkJoinTeamTest, DestroysWithHelpersThatNeverStarted) {
  ThreadPool pool(2);
  PoolBlocker blocker(&pool);
  {
    ForkJoinTeam team(&pool);
    std::atomic<int> chunks{0};
    team.Run(8, 1, [&](size_t, size_t, size_t) { chunks.fetch_add(1); });
    EXPECT_EQ(chunks.load(), 8);
  }  // both helpers are still queued here
  blocker.Release();
  // A team that never fanned out submitted nothing.
  { ForkJoinTeam idle(&pool); }
}

// Teams opened inside pool tasks of their own pool, more of them than
// workers: each caller can finish alone, so none waits on another.
TEST(ForkJoinTeamTest, TeamsInsidePoolTasksOfTheSamePool) {
  ThreadPool pool(2);
  std::atomic<size_t> items{0};
  TaskGroup outer;
  for (int t = 0; t < 4; ++t) {
    pool.Submit(&outer, [&pool, &items] {
      ForkJoinTeam team(&pool);
      for (int phase = 0; phase < 50; ++phase) {
        team.Run(256, 16, [&](size_t begin, size_t end, size_t) {
          items.fetch_add(end - begin, std::memory_order_relaxed);
        });
      }
    });
  }
  pool.WaitGroup(&outer);
  EXPECT_EQ(items.load(), 4u * 50 * 256);
}

}  // namespace
}  // namespace dd
