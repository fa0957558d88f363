// Deterministic parallel execution engine (docs/PARALLELISM.md).
//
// A ParallelStepper owns a fixed pool of worker threads and executes
// *shards* of one cycle's work concurrently between barriers. The engine
// guarantees bit-identical results to serial execution for any thread
// count, provided callers follow the two rules the rest of the simulator
// is built around:
//
//   1. a shard's phase function touches only shard-local state (vaults and
//      the link that serves them, one NUMA node, one independent run), and
//   2. every cross-shard effect is staged into a per-shard mailbox during
//      the phase and applied *after* the barrier, serially, in a fixed
//      canonical order (shard index, then intra-shard staging order).
//
// Which worker executes which shard is unspecified and may vary run to
// run — rule 1 makes that invisible, rule 2 makes the merge order (the
// only place concurrency could leak into results) a deterministic
// function of the shard indices alone.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mac3d {

class HostProfiler;

class ParallelStepper {
 public:
  /// `threads` is the total worker count including the calling thread
  /// (so `threads - 1` pool threads are spawned). 0 picks the hardware
  /// concurrency; 1 degrades to inline serial execution with no pool.
  explicit ParallelStepper(std::uint32_t threads = 0);
  ~ParallelStepper();

  ParallelStepper(const ParallelStepper&) = delete;
  ParallelStepper& operator=(const ParallelStepper&) = delete;

  /// Total worker count (pool threads + the calling thread).
  [[nodiscard]] std::uint32_t thread_count() const noexcept {
    return static_cast<std::uint32_t>(workers_.size()) + 1;
  }

  /// Execute fn(0) .. fn(count - 1) across the pool and barrier until all
  /// complete. Shards must touch pairwise-disjoint state. The first
  /// exception thrown by any shard is rethrown here after the barrier
  /// (which exception is first is unspecified when several shards throw
  /// concurrently — breaches under FailMode::kThrow are already a
  /// diagnostic path, not a measured one).
  void for_shards(std::size_t count,
                  const std::function<void(std::size_t)>& fn);

  /// Run-level sharding: execute independent whole tasks (one driver run,
  /// one workload trace) across the pool. Equivalent to for_shards over
  /// the task list.
  void run_tasks(const std::vector<std::function<void()>>& tasks);

  /// Attach host wall-clock attribution (docs/OBSERVABILITY.md §profiler):
  /// each shard execution adds to its worker's busy time (calling thread
  /// = worker 0, pool thread i = worker i + 1; each slot has exactly one
  /// writer). Size the profiler with set_worker_count(thread_count())
  /// first. Per-shard clock reads only happen while attached, so an
  /// unprofiled stepper never touches the host clock. Pass nullptr to
  /// detach; attach only between for_shards calls.
  void attach_profiler(HostProfiler* profiler) noexcept {
    profiler_ = profiler;
  }

 private:
  void work(std::size_t worker_index);
  void worker_loop(std::size_t worker_index);

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* job_ = nullptr;  // guarded
  std::size_t job_count_ = 0;                              // guarded
  std::size_t next_ = 0;                                   // guarded
  std::size_t pending_ = 0;                                // guarded
  std::uint64_t generation_ = 0;                           // guarded
  std::exception_ptr error_;                               // guarded
  bool stop_ = false;                                      // guarded
  HostProfiler* profiler_ = nullptr;  ///< set between barriers only
};

}  // namespace mac3d
