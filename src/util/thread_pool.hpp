// Deterministic fixed-size thread pool.
//
// The pool partitions an index range [0, count) into a FIXED BLOCK GRID:
// block b covers [b * grain, min((b + 1) * grain, count)), so the block
// boundaries depend only on (count, grain) — never on the worker count or
// on scheduling. Every caller passes the grain; there is no other
// partition. Workers CLAIM blocks from a shared atomic counter (the
// caller always takes block 0), so which thread runs a block varies run
// to run, but the blocks themselves never do: any per-block computation
// that writes its own outputs and shares no mutable state is reproducible
// run to run and across thread counts. The router, placer and k-means
// hot paths compute each item's output independently and reduce in a
// fixed order afterwards; per-worker scratch (the `worker` argument) must
// never feed into a result.
//
// Hand-off is built for back-to-back jobs of tens of microseconds: after
// its blocks a worker spins on its job word for kSpinWindow, so a job
// issued within that window starts without a syscall, and only then parks
// (std::atomic::wait). The caller notifies only workers that actually
// parked, and waits for completion on an atomic countdown, spinning for
// the same window before it blocks. A range that fits a single block runs
// inline on the calling thread with no cross-thread traffic at all, so a
// `grain` sized to one hand-off's worth of work (tens of microseconds)
// also serves as the cutoff below which a loop stays sequential.
//
// The auto pool size is the number of CPUs the process may run on (its
// affinity mask on Linux), which is also the most threads a pool keeps
// spinning. The sites that dispatch, with their grains and the
// measurements that keep them, are listed in docs/threading.md.
//
// Scheduler telemetry (docs/observability.md): a pool constructed with a
// label records, while pool stats are enabled, per-worker busy time,
// park/wake counts (split into hand-offs caught while spinning and wakes
// from park), blocks executed, inline runs, and a per-dispatch imbalance
// histogram. The counters follow the trace layer's passivity contract —
// nothing in the flow reads them, disabled cost is one relaxed atomic load
// per dispatch, and they are aggregated into a process-wide per-label
// registry only at pool destruction, then exported by the telemetry
// session into the run manifest.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/fields.hpp"

namespace autoncs::util {

/// Aggregated scheduler statistics of every pool constructed under one
/// label while pool stats were enabled. Purely observational: wall-clock
/// quantities in here go to the run manifest only, never into metrics
/// (they are not thread-count invariant).
struct PoolStats {
  std::string label;
  /// Widest worker count seen under this label.
  std::size_t workers = 0;
  /// Pools constructed (and destroyed) under this label.
  std::uint64_t pools = 0;
  /// parallel_for calls, inline runs included.
  std::uint64_t dispatches = 0;
  /// parallel_for calls served inline on the calling thread.
  std::uint64_t inline_runs = 0;
  /// Indices covered by dispatched (non-inline) jobs.
  std::uint64_t items = 0;
  /// Blocks executed across all workers of dispatched jobs.
  std::uint64_t blocks = 0;
  /// Times a worker outlasted its spin window and went to sleep.
  std::uint64_t parks = 0;
  /// Jobs received by workers woken from park.
  std::uint64_t wakes = 0;
  /// Jobs received by workers still spinning — hand-offs that cost no
  /// syscall. spin_wakes / (spin_wakes + wakes) is the share of the
  /// dispatch gaps the spin window covers.
  std::uint64_t spin_wakes = 0;
  /// Summed pool lifetimes (construction to destruction).
  std::uint64_t wall_ns = 0;
  /// Per-worker time spent inside dispatched jobs (worker 0 = caller).
  std::vector<std::uint64_t> busy_ns;
  /// Per-worker blocks executed.
  std::vector<std::uint64_t> blocks_run;
  /// Per-dispatch relative busy-time spread (max - min) / max across the
  /// workers that ran at least one block (a late worker may claim none):
  /// buckets < 5%, < 10%, < 25%, < 50%, >= 50%.
  std::array<std::uint64_t, 5> imbalance{};
};

/// One row of the manifest's `pool` list (util/fields.hpp).
template <RecordOf<PoolStats> Stats, class F>
void visit_fields(Stats& stats, F&& f) {
  auto& [label, workers, pools, dispatches, inline_runs, items, blocks,
         parks, wakes, spin_wakes, wall_ns, busy_ns, blocks_run, imbalance] =
      stats;
  f("label", label);
  f("workers", workers);
  f("pools", pools);
  f("dispatches", dispatches);
  f("inline_runs", inline_runs);
  f("items", items);
  f("blocks", blocks);
  f("parks", parks);
  f("wakes", wakes);
  f("spin_wakes", spin_wakes);
  f("wall_ns", wall_ns);
  f("busy_ns", busy_ns);
  f("blocks_run", blocks_run);
  f("imbalance", imbalance);
}

namespace pool_detail {
extern std::atomic<bool> g_stats_enabled;
}

/// True while pool statistics are collected. Relaxed load — safe and
/// cheap from any thread.
inline bool pool_stats_enabled() {
  return pool_detail::g_stats_enabled.load(std::memory_order_relaxed);
}

/// Clears the per-label registry and starts collecting (idempotent).
void start_pool_stats();

/// Copies the registry so far, sorted by label. Pools still alive have
/// not flushed yet — stats land in the registry at pool destruction.
std::vector<PoolStats> pool_stats_snapshot();

/// Stops collecting and returns (moving out) everything recorded.
std::vector<PoolStats> stop_pool_stats();

/// Maps a user-facing thread knob to a concrete worker count: 0 means
/// "auto" — the number of CPUs the calling thread may run on
/// (sched_getaffinity on Linux, hardware_concurrency() elsewhere; at
/// least 1). An explicit nonzero request is used as given.
std::size_t resolve_thread_count(std::size_t requested);

class ThreadPool {
 public:
  /// fn(begin, end, worker): process items [begin, end) on worker `worker`.
  /// A worker may invoke fn several times (once per block it claims); the
  /// ranges it receives are disjoint but not necessarily contiguous.
  using RangeFn =
      std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// How long an idle thread keeps spinning for the next hand-off before
  /// it blocks: a worker on its job word after its blocks, the caller on
  /// the completion countdown. Longer than the sequential gaps between the
  /// pooled loops of a placer objective evaluation, so the back-to-back
  /// dispatches of a CG line search hand off without a syscall, while an
  /// idle pool sleeps within a fraction of a millisecond. Fixed rather than an option: the window trades a few
  /// hundred microseconds of CPU per idle gap against a futex round trip,
  /// which depends on the machine, not on the design being placed.
  static constexpr std::chrono::microseconds kSpinWindow{150};

  /// Spawns `threads - 1` workers (the caller participates as worker 0);
  /// 0 resolves via resolve_thread_count. `label` names the pool in the
  /// scheduler-telemetry registry ("place", "route", ...); it must be a
  /// string literal or otherwise outlive the pool. nullptr opts out of
  /// stats collection entirely.
  explicit ThreadPool(std::size_t threads = 0, const char* label = nullptr);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers including the calling thread (>= 1).
  std::size_t size() const { return worker_count_; }

  /// Runs fn over [0, count) split into fixed blocks of `grain` (>= 1)
  /// indices (the last block may be short); blocks until every block
  /// finished. The caller runs block 0; it and min(size(), blocks) - 1
  /// signalled workers claim the remaining blocks from an atomic counter,
  /// so every block runs exactly once, on some worker. Workers beyond the
  /// block count are never signalled, and a single-block range runs
  /// inline on the caller as fn(0, count, 0). The first exception thrown
  /// by any block is rethrown on the calling thread. Not reentrant.
  void parallel_for(std::size_t count, const RangeFn& fn, std::size_t grain);

 private:
  /// Hand-off word of one spawned worker plus its park/wake counters.
  /// `job` counts the jobs signalled to the worker (the caller is its only
  /// writer); `parked` is set while the worker sleeps on `job`, so the
  /// caller issues a wake syscall only to workers that need one. The
  /// counters are written with relaxed atomics from the worker thread and
  /// read only at pool destruction. Cache-line aligned so neighbouring
  /// workers never share a line.
  struct alignas(64) WorkerSlot {
    std::atomic<std::uint32_t> job{0};
    std::atomic<std::uint32_t> parked{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> wakes{0};
    std::atomic<std::uint64_t> spin_wakes{0};
  };

  void worker_loop(std::size_t worker);
  /// Claims and runs blocks of the current job until none are left (the
  /// caller enters with block 0 already claimed), capturing the first
  /// exception.
  void run_blocks(std::size_t worker, std::size_t first);
  /// Merges this pool's counters into the per-label registry.
  void flush_stats();

  std::size_t worker_count_;
  const char* label_;
  /// Whether idle threads spin before blocking: false when the pool has
  /// more threads than the process may run on CPUs, where a spinning
  /// thread could only delay the thread it waits for.
  bool spin_;
  std::chrono::steady_clock::time_point born_;
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::atomic<bool> stop_{false};

  // Current job. Written by the caller before any worker is signalled;
  // the release store of each worker's job word publishes them.
  const RangeFn* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::size_t job_grain_ = 0;
  std::size_t job_blocks_ = 0;
  /// Whether the current job collects stats — latched by the caller at
  /// dispatch so workers see a consistent value for the whole job.
  bool job_stats_ = false;

  /// Next unclaimed block of the current job.
  alignas(64) std::atomic<std::size_t> next_block_{0};
  /// Signalled workers that have not finished the current job; the last
  /// one to finish wakes the caller if it is blocked (`caller_parked_`).
  alignas(64) std::atomic<std::uint32_t> remaining_{0};
  std::atomic<std::uint32_t> caller_parked_{0};

  // Dispatch-level statistics. The per-job arrays are written by each
  // participating worker (its own element only) and read by the caller
  // after the drain, which the remaining_ countdown orders. The
  // cumulative counters are touched by the calling thread alone.
  alignas(64) std::vector<std::uint64_t> job_busy_ns_;
  std::vector<std::uint64_t> job_blocks_run_;
  std::uint64_t stat_dispatches_ = 0;
  std::uint64_t stat_inline_runs_ = 0;
  std::uint64_t stat_items_ = 0;
  std::uint64_t stat_blocks_ = 0;
  std::vector<std::uint64_t> stat_busy_ns_;
  std::vector<std::uint64_t> stat_blocks_run_;
  std::array<std::uint64_t, 5> stat_imbalance_{};

  /// First exception of the current job. Threads store it under the
  /// mutex; the caller takes it (leaving it null) after the drain.
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

}  // namespace autoncs::util
