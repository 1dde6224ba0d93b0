#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace autoncs::util {
namespace {

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_GE(resolve_thread_count(0), 1u);
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
}

TEST(ThreadPool, AutoCountFollowsAffinity) {
#if defined(__linux__)
  // Narrow this thread to one of its CPUs: the auto count and a default
  // pool follow the mask, explicit requests stay as given. The mask is
  // restored before any assertion can return early.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t narrowed_auto = resolve_thread_count(0);
  const std::size_t narrowed_pool = ThreadPool().size();
  const std::size_t narrowed_explicit = ThreadPool(3).size();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(narrowed_auto, 1u);
  EXPECT_EQ(narrowed_pool, 1u);
  EXPECT_EQ(narrowed_explicit, 3u);
  EXPECT_EQ(resolve_thread_count(0),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
#else
  GTEST_SKIP() << "CPU affinity masks are a Linux interface";
#endif
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    const std::size_t count = 777;
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(
        count,
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
          EXPECT_LT(worker, threads);
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        100);
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(
      0, [&](std::size_t, std::size_t, std::size_t) { called = true; }, 1);
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ZeroGrainIsRejected) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10, [](std::size_t, std::size_t, std::size_t) {}, 0),
      CheckError);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  const std::size_t count = 100;
  std::vector<double> out(count, 0.0);
  for (int job = 0; job < 50; ++job) {
    pool.parallel_for(
        count,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t i = begin; i < end; ++i)
            out[i] = static_cast<double>(i) * 2.0;
        },
        7);
    const double sum = std::accumulate(out.begin(), out.end(), 0.0);
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(count * (count - 1)));
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(
          10,
          [](std::size_t begin, std::size_t, std::size_t) {
            if (begin == 0) throw std::runtime_error("boom");
          },
          5),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> total{0};
  pool.parallel_for(
      10,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        total.fetch_add(static_cast<int>(end - begin));
      },
      5);
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(
      5,
      [&](std::size_t, std::size_t, std::size_t worker) {
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
      },
      1);
}

TEST(ThreadPool, SmallRangeRunsInlineWithGrain) {
  // A count that fits one grain must stay on the caller: no worker wakeup,
  // one invocation covering the whole range.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::size_t calls = 0;
  pool.parallel_for(
      8,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        ++calls;
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 8u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
      },
      16);
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, GrainBlocksAreThreadCountInvariant) {
  // The same (count, grain) must produce the same block boundaries for any
  // pool size — the invariance the deterministic batched dispatch relies
  // on. Each invocation must span exactly one block of the fixed grid.
  const std::size_t count = 103;
  const std::size_t grain = 10;
  std::set<std::pair<std::size_t, std::size_t>> reference;
  for (std::size_t b = 0; b * grain < count; ++b) {
    reference.insert({b * grain, std::min((b + 1) * grain, count)});
  }
  for (std::size_t threads : {2u, 3u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::mutex mutex;
    std::set<std::pair<std::size_t, std::size_t>> blocks;
    pool.parallel_for(
        count,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          const std::lock_guard<std::mutex> lock(mutex);
          blocks.insert({begin, end});
        },
        grain);
    EXPECT_EQ(blocks, reference) << "threads = " << threads;
  }
}

TEST(ThreadPoolStats, DisabledPoolsFlushNothing) {
  // Stats are opt-in: a labeled pool outside a start/stop window must not
  // register anything.
  ASSERT_FALSE(pool_stats_enabled());
  {
    ThreadPool pool(2, "stats-test-disabled");
    pool.parallel_for(100, [](std::size_t, std::size_t, std::size_t) {}, 10);
  }
  start_pool_stats();
  const auto stats = stop_pool_stats();
  for (const auto& p : stats) EXPECT_NE(p.label, "stats-test-disabled");
}

TEST(ThreadPoolStats, UnlabeledPoolsNeverRegister) {
  start_pool_stats();
  {
    ThreadPool pool(2);
    pool.parallel_for(100, [](std::size_t, std::size_t, std::size_t) {}, 10);
  }
  EXPECT_TRUE(stop_pool_stats().empty());
  EXPECT_FALSE(pool_stats_enabled());
}

TEST(ThreadPoolStats, EnabledPoolsReportDispatchesAndBusyTime) {
  start_pool_stats();
  {
    ThreadPool pool(3, "stats-test");
    for (int job = 0; job < 4; ++job) {
      pool.parallel_for(
          300,
          [](std::size_t begin, std::size_t end, std::size_t) {
            volatile double sink = 0.0;
            for (std::size_t i = begin; i < end; ++i)
              sink = sink + static_cast<double>(i);
          },
          100);
    }
  }
  const auto stats = stop_pool_stats();
  const auto it = std::find_if(stats.begin(), stats.end(), [](const auto& p) {
    return p.label == "stats-test";
  });
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->workers, 3u);
  EXPECT_EQ(it->pools, 1u);
  EXPECT_EQ(it->dispatches, 4u);
  EXPECT_EQ(it->items, 4u * 300u);
  EXPECT_GT(it->blocks, 0u);
  EXPECT_GT(it->wall_ns, 0u);
  ASSERT_EQ(it->busy_ns.size(), 3u);
  ASSERT_EQ(it->blocks_run.size(), 3u);
  // Worker 0 (the caller) claims block 0 before any worker is signalled,
  // so it runs at least one block of every dispatch.
  EXPECT_GT(it->busy_ns[0], 0u);
  EXPECT_GT(it->blocks_run[0], 0u);
  std::uint64_t blocks_total = 0;
  for (const std::uint64_t b : it->blocks_run) blocks_total += b;
  EXPECT_EQ(blocks_total, it->blocks);
  std::uint64_t imbalance_total = 0;
  for (const std::uint64_t b : it->imbalance) imbalance_total += b;
  EXPECT_EQ(imbalance_total, it->dispatches - it->inline_runs);
}

TEST(ThreadPoolStats, InlineJobsAreCountedSeparately) {
  start_pool_stats();
  {
    ThreadPool pool(4, "stats-inline");
    // Fits one grain -> runs inline on the caller without a wakeup.
    pool.parallel_for(
        4, [](std::size_t, std::size_t, std::size_t) {}, 16);
  }
  const auto stats = stop_pool_stats();
  const auto it = std::find_if(stats.begin(), stats.end(), [](const auto& p) {
    return p.label == "stats-inline";
  });
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->dispatches, 1u);
  EXPECT_EQ(it->inline_runs, 1u);
}

TEST(ThreadPoolStats, SameLabelMergesAcrossPools) {
  start_pool_stats();
  for (int round = 0; round < 2; ++round) {
    ThreadPool pool(2, "stats-merge");
    pool.parallel_for(64, [](std::size_t, std::size_t, std::size_t) {}, 16);
  }
  const auto stats = stop_pool_stats();
  const auto it = std::find_if(stats.begin(), stats.end(), [](const auto& p) {
    return p.label == "stats-merge";
  });
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->pools, 2u);
  EXPECT_EQ(it->dispatches, 2u);
}

TEST(ThreadPool, GrainCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (std::size_t grain : {1u, 7u, 64u, 1000u}) {
    const std::size_t count = 500;
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(
        count,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        grain);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "grain = " << grain << ", i = " << i;
    }
  }
}

TEST(ThreadPool, ClaimedBlocksRunExactlyOnce) {
  // Under claiming any thread may run any block: every index must still
  // be processed exactly once per job, job after job, at every pool size.
  // A pooled job invokes fn once per whole block of the fixed grid; a
  // single-thread pool runs the range inline in one call.
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (std::size_t grain : {1u, 3u, 16u}) {
      const std::size_t count = 97;
      for (int job = 0; job < 20; ++job) {
        std::vector<std::atomic<int>> hits(count);
        for (auto& h : hits) h.store(0);
        pool.parallel_for(
            count,
            [&](std::size_t begin, std::size_t end, std::size_t worker) {
              EXPECT_LT(worker, threads);
              if (threads > 1) {
                EXPECT_EQ(begin % grain, 0u);
                EXPECT_EQ(end, std::min(begin + grain, count));
              }
              for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
            },
            grain);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "threads = " << threads
                                       << ", grain = " << grain
                                       << ", index = " << i;
        }
      }
    }
  }
}

TEST(ThreadPool, CallerAlwaysRunsBlockZero) {
  // The caller claims block 0 before it signals any worker, so block 0
  // runs on the calling thread as worker 0 — even when the workers are
  // already spinning and could claim instantly.
  const auto caller = std::this_thread::get_id();
  for (std::size_t threads : {2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (int job = 0; job < 200; ++job) {
      std::atomic<int> block_zero_runs{0};
      pool.parallel_for(
          8,
          [&](std::size_t begin, std::size_t, std::size_t worker) {
            if (begin != 0) return;
            block_zero_runs.fetch_add(1);
            EXPECT_EQ(worker, 0u);
            EXPECT_EQ(std::this_thread::get_id(), caller);
          },
          1);
      ASSERT_EQ(block_zero_runs.load(), 1);
    }
  }
}

TEST(ThreadPool, HotPathBackToBackTinyJobs) {
  // 10^5 dispatches of a few nanoseconds each: the workers are caught
  // spinning almost every time. Every job must still complete fully
  // before parallel_for returns, and every signalled worker must receive
  // each job exactly once — spinning or woken from park.
  constexpr int kJobs = 100000;
  start_pool_stats();
  {
    ThreadPool pool(2, "stats-hot");
    std::vector<std::uint64_t> out(4, 0);
    for (int job = 0; job < kJobs; ++job) {
      pool.parallel_for(
          out.size(),
          [&](std::size_t begin, std::size_t end, std::size_t) {
            for (std::size_t i = begin; i < end; ++i) ++out[i];
          },
          1);
      ASSERT_EQ(out[0] + out[1] + out[2] + out[3],
                4u * static_cast<std::uint64_t>(job + 1));
    }
  }
  const auto stats = stop_pool_stats();
  const auto it = std::find_if(stats.begin(), stats.end(), [](const auto& p) {
    return p.label == "stats-hot";
  });
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->dispatches, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(it->inline_runs, 0u);
  EXPECT_EQ(it->blocks, 4u * kJobs);
  // One hand-off per job to the one signalled worker.
  EXPECT_EQ(it->spin_wakes + it->wakes, static_cast<std::uint64_t>(kJobs));
  EXPECT_LE(it->wakes, it->parks);
}

TEST(ThreadPool, ColdPathReachesParkedWorkers) {
  // A job issued long after the spin window finds every worker parked:
  // it must wake them (no lost wake-up) and count the hand-offs as wakes
  // from park.
  start_pool_stats();
  {
    ThreadPool pool(3, "stats-cold");
    for (int round = 0; round < 3; ++round) {
      std::this_thread::sleep_for(ThreadPool::kSpinWindow * 200);
      std::vector<std::atomic<int>> hits(3);
      for (auto& h : hits) h.store(0);
      pool.parallel_for(
          3,
          [&](std::size_t begin, std::size_t end, std::size_t) {
            for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          },
          1);
      for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
    }
  }
  const auto stats = stop_pool_stats();
  const auto it = std::find_if(stats.begin(), stats.end(), [](const auto& p) {
    return p.label == "stats-cold";
  });
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->dispatches, 3u);
  // Two signalled workers per job.
  EXPECT_EQ(it->spin_wakes + it->wakes, 6u);
  EXPECT_GE(it->wakes, 1u);
  EXPECT_GE(it->parks, it->wakes);
}

TEST(ThreadPool, DestructorJoinsPromptly) {
  // Teardown must not wait out the spin window per worker, nor hang on a
  // parked worker: both a pool destroyed right after a job (workers
  // spinning) and one destroyed after idling (workers parked) join fast.
  using Clock = std::chrono::steady_clock;
  const auto bound = std::chrono::milliseconds(500);
  for (bool idle : {false, true}) {
    for (std::size_t threads : {2u, 4u, 8u}) {
      auto pool = std::make_unique<ThreadPool>(threads);
      std::atomic<int> total{0};
      pool->parallel_for(
          64,
          [&](std::size_t begin, std::size_t end, std::size_t) {
            total.fetch_add(static_cast<int>(end - begin));
          },
          1);
      ASSERT_EQ(total.load(), 64);
      if (idle) std::this_thread::sleep_for(ThreadPool::kSpinWindow * 100);
      const auto t0 = Clock::now();
      pool.reset();
      EXPECT_LT(Clock::now() - t0, bound)
          << "threads = " << threads << (idle ? " (parked)" : " (spinning)");
    }
  }
  // A pool that never dispatched tears down just as promptly.
  const auto t0 = Clock::now();
  { ThreadPool pool(4); }
  EXPECT_LT(Clock::now() - t0, bound);
}

TEST(ThreadPool, PropagatesExceptionsFromClaimedBlocks) {
  // A block other than the caller's block 0 throws: the exception must
  // reach the caller whichever thread claimed the block, the other blocks
  // still run, and the pool stays usable. With several throwing blocks
  // exactly one exception is rethrown.
  for (std::size_t threads : {2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 20; ++round) {
      std::vector<std::atomic<int>> runs(16);
      for (auto& r : runs) r.store(0);
      EXPECT_THROW(pool.parallel_for(
                       16,
                       [&](std::size_t begin, std::size_t, std::size_t) {
                         runs[begin].fetch_add(1);
                         if (begin == 5 || begin == 11) {
                           throw std::runtime_error("boom");
                         }
                       },
                       1),
                   std::runtime_error);
      int total = 0;
      for (const auto& r : runs) {
        ASSERT_LE(r.load(), 1);
        total += r.load();
      }
      // A thread stops claiming after its own block throws; every block
      // that ran, ran once, and blocks 0, 5 and 11 always ran.
      EXPECT_GE(total, 3);
      EXPECT_EQ(runs[0].load(), 1);
      EXPECT_EQ(runs[5].load(), 1);
      EXPECT_EQ(runs[11].load(), 1);
      std::atomic<int> after{0};
      pool.parallel_for(
          16,
          [&](std::size_t begin, std::size_t end, std::size_t) {
            after.fetch_add(static_cast<int>(end - begin));
          },
          1);
      ASSERT_EQ(after.load(), 16);
    }
  }
}

}  // namespace
}  // namespace autoncs::util
