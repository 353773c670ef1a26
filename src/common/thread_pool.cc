#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace locat::common {
namespace {

/// Set while a thread executes tasks for a pool; lets ParallelFor detect
/// re-entrant use of the same pool and degrade to inline execution.
thread_local const ThreadPool* g_current_pool = nullptr;

int DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool>& slot =
      *new std::unique_ptr<ThreadPool>();
  return slot;
}

/// Guards GlobalSlot(): the first Global() call may come from several
/// threads at once (e.g. ExperimentRunner::RunAll workers), and two lazy
/// constructions racing would destroy a pool another thread is using.
std::mutex& GlobalSlotMutex() {
  static std::mutex& mu = *new std::mutex();
  return mu;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int t = 0; t < num_threads_ - 1; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t blocks =
      std::min<size_t>(static_cast<size_t>(num_threads_), n);
  if (blocks <= 1 || g_current_pool == this) {
    fn(0, n);
    return;
  }

  // Contiguous even partition: block b covers [b*base + min(b, rem), ...).
  const size_t base = n / blocks;
  const size_t rem = n % blocks;
  auto block_begin = [&](size_t b) { return b * base + std::min(b, rem); };

  struct BlockState {
    std::vector<std::exception_ptr> errors;
    std::atomic<size_t> remaining;
    std::mutex done_mu;
    std::condition_variable done_cv;
  };
  auto state = std::make_shared<BlockState>();
  state->errors.resize(blocks);
  state->remaining.store(blocks, std::memory_order_relaxed);

  auto run_block = [state, &fn, this](size_t b, size_t begin, size_t end) {
    const ThreadPool* prev = g_current_pool;
    g_current_pool = this;
    try {
      fn(begin, end);
    } catch (...) {
      state->errors[b] = std::current_exception();
    }
    g_current_pool = prev;
    if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(state->done_mu);
      state->done_cv.notify_all();
    }
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t b = 1; b < blocks; ++b) {
      const size_t begin = block_begin(b);
      const size_t end = block_begin(b + 1);
      tasks_.push_back([run_block, b, begin, end] { run_block(b, begin, end); });
    }
  }
  work_available_.notify_all();

  // The caller works too: block 0 runs here.
  run_block(0, 0, block_begin(1));

  {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(lock, [&] {
      return state->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  // Deterministic propagation: the lowest-indexed failing block wins,
  // independent of scheduling order.
  for (size_t b = 0; b < blocks; ++b) {
    if (state->errors[b]) std::rethrow_exception(state->errors[b]);
  }
}

void ThreadPool::ParallelForEach(size_t n,
                                 const std::function<void(size_t)>& fn) {
  ParallelFor(n, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::Submit(std::function<void()> task) {
  if (num_threads_ <= 1 || g_current_pool == this) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

ThreadPool* ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalSlotMutex());
  auto& slot = GlobalSlot();
  if (slot == nullptr) slot = std::make_unique<ThreadPool>(DefaultThreads());
  return slot.get();
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(GlobalSlotMutex());
  auto& slot = GlobalSlot();
  slot = std::make_unique<ThreadPool>(
      num_threads <= 0 ? DefaultThreads() : num_threads);
}

}  // namespace locat::common
