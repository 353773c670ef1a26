#ifndef LOCAT_COMMON_THREAD_POOL_H_
#define LOCAT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace locat::common {

/// A deliberately simple fixed-size thread pool: one mutex-protected task
/// queue, no work stealing. It exists for the BO hot path (EI-MCMC ensemble
/// member fits and batched predictions), the experiment grid and the serve
/// drivers, where the work items are chunky enough that queue contention is
/// irrelevant and where *determinism* matters more than the last few
/// percent of throughput.
///
/// Determinism contract: `ParallelFor` partitions [0, n) into contiguous
/// blocks, each index is executed exactly once, and no reduction happens
/// inside the pool — callers write results into per-index slots, so the
/// outcome is bit-identical for any thread count (including 1, which runs
/// everything inline on the caller). Worker threads must not draw from any
/// shared RNG; RNG consumption stays on the calling thread.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the calling thread is the last
  /// "worker" during ParallelFor). `num_threads <= 1` spawns nothing and
  /// makes every ParallelFor run inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs `fn(begin, end)` over a partition of [0, n) into at most
  /// `num_threads()` contiguous blocks. Blocks until every block finished.
  /// The caller executes the first block itself. If any block throws, the
  /// exception of the lowest-indexed throwing block is rethrown after all
  /// blocks completed (deterministic exception choice).
  ///
  /// Re-entrant calls from inside a pool task of the *same* pool run
  /// inline (single block on the calling thread) — nested parallelism
  /// would otherwise deadlock a fully-busy queue.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn);

  /// Per-index convenience wrapper over ParallelFor.
  void ParallelForEach(size_t n, const std::function<void(size_t)>& fn);

  /// Enqueues one fire-and-forget task. Unlike ParallelFor the caller
  /// does NOT participate or wait; completion is the task's own business
  /// (pair with a promise/future or condition variable). A pool with no
  /// workers (`num_threads() <= 1`) runs the task inline before
  /// returning, so single-threaded configurations stay deterministic and
  /// never deadlock a waiter. Tasks submitted from inside a pool task of
  /// the same pool also run inline — queueing them behind a full queue of
  /// blocked parents could deadlock.
  void Submit(std::function<void()> task);

  /// The process-wide pool used by the BO hot path. Defaults to
  /// `std::thread::hardware_concurrency()` threads and is created on first
  /// use (safe from several threads at once); `SetGlobalThreads` rebuilds
  /// it (not thread-safe against concurrent ParallelFor — call it from the
  /// main thread between tuning passes, e.g. when parsing `--threads`).
  static ThreadPool* Global();
  static void SetGlobalThreads(int num_threads);

 private:
  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> tasks_;
  bool shutting_down_ = false;
};

}  // namespace locat::common

#endif  // LOCAT_COMMON_THREAD_POOL_H_
