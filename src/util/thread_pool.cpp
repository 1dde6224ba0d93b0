#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/check.hpp"
#include "util/trace.hpp"

namespace autoncs::util {

namespace pool_detail {
std::atomic<bool> g_stats_enabled{false};
}

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Per-label accumulator. Leaked so pools destroyed during static
/// teardown can still flush.
struct PoolRegistry {
  std::mutex mutex;
  std::vector<PoolStats> entries;
};

PoolRegistry& pool_registry() {
  static PoolRegistry* r = new PoolRegistry();
  return *r;
}

/// Relaxes the core for one spin iteration: the x86 `pause` / aarch64
/// `yield` hint (frees pipeline resources for a sibling hyperthread and
/// saves power), or a scheduler yield where neither exists.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Spin iterations between two reads of the clock (~1-3 us of `pause`).
constexpr int kRelaxesPerCheck = 64;

/// Spins until `ready()` holds or ThreadPool::kSpinWindow has passed;
/// returns the final `ready()`. Between clock reads the thread yields, so
/// on an oversubscribed machine a spinner cedes its core to runnable
/// threads instead of starving them; on an idle core the yield returns at
/// once.
template <typename Ready>
bool spin_until(const Ready& ready) {
  const Clock::time_point deadline = Clock::now() + ThreadPool::kSpinWindow;
  for (;;) {
    for (int i = 0; i < kRelaxesPerCheck; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (Clock::now() >= deadline) return ready();
    std::this_thread::yield();
  }
}

/// Buckets a relative spread in [0, 1] into the imbalance histogram.
std::size_t imbalance_bucket(double spread) {
  if (spread < 0.05) return 0;
  if (spread < 0.10) return 1;
  if (spread < 0.25) return 2;
  if (spread < 0.50) return 3;
  return 4;
}

}  // namespace

void start_pool_stats() {
  PoolRegistry& r = pool_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.entries.clear();
  pool_detail::g_stats_enabled.store(true, std::memory_order_release);
}

std::vector<PoolStats> pool_stats_snapshot() {
  PoolRegistry& r = pool_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<PoolStats> out = r.entries;
  std::sort(out.begin(), out.end(),
            [](const PoolStats& a, const PoolStats& b) {
              return a.label < b.label;
            });
  return out;
}

std::vector<PoolStats> stop_pool_stats() {
  pool_detail::g_stats_enabled.store(false, std::memory_order_release);
  PoolRegistry& r = pool_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<PoolStats> out = std::move(r.entries);
  r.entries.clear();
  std::sort(out.begin(), out.end(),
            [](const PoolStats& a, const PoolStats& b) {
              return a.label < b.label;
            });
  return out;
}

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
#if defined(__linux__)
  // The affinity mask, not the machine: a container or `taskset` that
  // narrows it is what the pool can actually run on.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int cpus = CPU_COUNT(&set);
    if (cpus > 0) return static_cast<std::size_t>(cpus);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads, const char* label)
    : worker_count_(resolve_thread_count(threads)),
      label_(label),
      spin_(worker_count_ > 1 && worker_count_ <= resolve_thread_count(0)),
      born_(Clock::now()) {
  threads_.reserve(worker_count_ - 1);
  slots_.reserve(worker_count_ - 1);
  for (std::size_t w = 1; w < worker_count_; ++w) {
    slots_.emplace_back(std::make_unique<WorkerSlot>());
  }
  job_busy_ns_.assign(worker_count_, 0);
  job_blocks_run_.assign(worker_count_, 0);
  stat_busy_ns_.assign(worker_count_, 0);
  stat_blocks_run_.assign(worker_count_, 0);
  for (std::size_t w = 1; w < worker_count_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& slot : slots_) {
    // The release increment publishes stop_; a spinning worker sees the
    // new word on its next poll, a parked one is woken unconditionally.
    slot->job.fetch_add(1, std::memory_order_release);
    slot->job.notify_one();
  }
  for (auto& thread : threads_) thread.join();
  if (label_ != nullptr && pool_stats_enabled()) flush_stats();
}

void ThreadPool::flush_stats() {
  // The workers have joined, so every counter is quiescent.
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  std::uint64_t spin_wakes = 0;
  for (const auto& slot : slots_) {
    parks += slot->parks.load(std::memory_order_relaxed);
    wakes += slot->wakes.load(std::memory_order_relaxed);
    spin_wakes += slot->spin_wakes.load(std::memory_order_relaxed);
  }
  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           born_)
          .count());
  PoolRegistry& r = pool_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  PoolStats* entry = nullptr;
  for (PoolStats& e : r.entries) {
    if (e.label == label_) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    r.entries.emplace_back();
    entry = &r.entries.back();
    entry->label = label_;
  }
  entry->workers = std::max(entry->workers, worker_count_);
  entry->pools += 1;
  entry->dispatches += stat_dispatches_;
  entry->inline_runs += stat_inline_runs_;
  entry->items += stat_items_;
  entry->blocks += stat_blocks_;
  entry->parks += parks;
  entry->wakes += wakes;
  entry->spin_wakes += spin_wakes;
  entry->wall_ns += wall_ns;
  if (entry->busy_ns.size() < worker_count_) {
    entry->busy_ns.resize(worker_count_, 0);
    entry->blocks_run.resize(worker_count_, 0);
  }
  for (std::size_t w = 0; w < worker_count_; ++w) {
    entry->busy_ns[w] += stat_busy_ns_[w];
    entry->blocks_run[w] += stat_blocks_run_[w];
  }
  for (std::size_t b = 0; b < entry->imbalance.size(); ++b) {
    entry->imbalance[b] += stat_imbalance_[b];
  }
}

void ThreadPool::run_blocks(std::size_t worker, std::size_t first) {
  const std::uint64_t t0 = job_stats_ ? now_ns() : 0;
  std::uint64_t executed = 0;
  {
    // The blocks this worker claimed — the trace argument that makes
    // uneven claiming visible per worker lane in Perfetto.
    TraceSpan span("pool/run", "blocks", 0);
    try {
      for (std::size_t b = first; b < job_blocks_;
           b = next_block_.fetch_add(1, std::memory_order_relaxed)) {
        const std::size_t begin = b * job_grain_;
        const std::size_t end = std::min(begin + job_grain_, job_count_);
        (*job_)(begin, end, worker);
        ++executed;
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
    span.set_arg(static_cast<std::int64_t>(executed));
  }
  if (job_stats_) {
    job_busy_ns_[worker] = now_ns() - t0;
    job_blocks_run_[worker] = executed;
  }
}

void ThreadPool::parallel_for(std::size_t count, const RangeFn& fn,
                              std::size_t grain) {
  AUTONCS_CHECK(grain > 0, "parallel_for needs a grain of at least 1");
  if (count == 0) return;
  const std::size_t blocks = (count + grain - 1) / grain;
  const std::size_t active = std::min(worker_count_, blocks);
  const bool stats = label_ != nullptr && pool_stats_enabled();
  if (active <= 1) {
    // The whole range fits one block (or there is one worker): stay on
    // the calling thread — no hand-off, no synchronization. Inline runs
    // still count as dispatches (inline_runs is the subset of dispatches
    // that never touched the workers).
    if (stats) {
      ++stat_dispatches_;
      ++stat_inline_runs_;
      stat_items_ += count;
    }
    fn(0, count, 0);
    return;
  }

  // Publish the job. The workers are idle (the previous job drained), so
  // these plain writes race with nothing; each worker's job word is
  // stored with release semantics after them. The caller claims block 0
  // before any worker can claim, so it always runs at least one block.
  job_ = &fn;
  job_count_ = count;
  job_grain_ = grain;
  job_blocks_ = blocks;
  job_stats_ = stats;
  next_block_.store(1, std::memory_order_relaxed);
  remaining_.store(static_cast<std::uint32_t>(active - 1),
                   std::memory_order_relaxed);
  {
    // The dispatch span covers the hand-offs plus the caller's own share
    // of the blocks; the drain span is the wait for stragglers.
    TraceSpan dispatch_span("pool/dispatch", "items",
                            static_cast<std::int64_t>(count));
    for (std::size_t w = 1; w < active; ++w) {
      WorkerSlot& slot = *slots_[w - 1];
      // seq_cst store then load, mirrored by the worker's parked store
      // then job load: at least one side sees the other, so a worker
      // about to park either finds the new job or gets the notify.
      slot.job.fetch_add(1, std::memory_order_seq_cst);
      if (slot.parked.load(std::memory_order_seq_cst) != 0) {
        slot.job.notify_one();
      }
    }
    run_blocks(0, 0);
  }
  {
    TraceSpan drain_span("pool/drain");
    const auto drained = [this] {
      return remaining_.load(std::memory_order_acquire) == 0;
    };
    if (!(spin_ && spin_until(drained))) {
      // Same store/load pairing with the last worker's decrement as the
      // workers' parking above.
      caller_parked_.store(1, std::memory_order_seq_cst);
      for (std::uint32_t left = remaining_.load(std::memory_order_seq_cst);
           left != 0; left = remaining_.load(std::memory_order_seq_cst)) {
        remaining_.wait(left, std::memory_order_seq_cst);
      }
      caller_parked_.store(0, std::memory_order_relaxed);
    }
  }
  if (stats) {
    ++stat_dispatches_;
    stat_items_ += count;
    // The spread is taken over the workers that ran a block: a worker
    // that arrived after the last claim idled by design, not by skew.
    std::uint64_t busy_min = job_busy_ns_[0];
    std::uint64_t busy_max = job_busy_ns_[0];
    for (std::size_t w = 0; w < active; ++w) {
      const std::uint64_t busy = job_busy_ns_[w];
      stat_busy_ns_[w] += busy;
      stat_blocks_run_[w] += job_blocks_run_[w];
      stat_blocks_ += job_blocks_run_[w];
      if (job_blocks_run_[w] == 0) continue;
      busy_min = std::min(busy_min, busy);
      busy_max = std::max(busy_max, busy);
    }
    if (busy_max > 0) {
      const double spread =
          static_cast<double>(busy_max - busy_min) /
          static_cast<double>(busy_max);
      ++stat_imbalance_[imbalance_bucket(spread)];
    }
  }
  job_ = nullptr;
  job_stats_ = false;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::worker_loop(std::size_t worker) {
  WorkerSlot& slot = *slots_[worker - 1];
  std::uint32_t seen = 0;
  for (;;) {
    const auto signalled = [&] {
      return slot.job.load(std::memory_order_acquire) != seen;
    };
    const bool caught_spinning = spin_ && spin_until(signalled);
    if (!caught_spinning) {
      if (label_ != nullptr && pool_stats_enabled()) {
        slot.parks.fetch_add(1, std::memory_order_relaxed);
      }
      slot.parked.store(1, std::memory_order_seq_cst);
      while (slot.job.load(std::memory_order_seq_cst) == seen) {
        slot.job.wait(seen, std::memory_order_seq_cst);
      }
      slot.parked.store(0, std::memory_order_relaxed);
    }
    seen = slot.job.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    if (job_stats_) {
      (caught_spinning ? slot.spin_wakes : slot.wakes)
          .fetch_add(1, std::memory_order_relaxed);
    }
    run_blocks(worker, next_block_.fetch_add(1, std::memory_order_relaxed));
    if (remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        caller_parked_.load(std::memory_order_seq_cst) != 0) {
      remaining_.notify_one();
    }
  }
}

}  // namespace autoncs::util
