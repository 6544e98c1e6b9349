#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace ldpids {

namespace {
// Set while a thread — pool worker or the calling thread — executes job
// tasks, so nested ParallelFor calls from inside a task degrade to inline
// loops instead of deadlocking on the pool's (non-recursive) job mutex.
thread_local bool t_inside_parallel_task = false;
}  // namespace

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    throw std::invalid_argument("ThreadPool needs at least 1 thread");
  }
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::RunChunk(const std::function<void(std::size_t)>& fn,
                          std::size_t n) {
  while (true) {
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      fn(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      // Cancel the remaining indices; peers drain out on their next pull.
      cursor_.store(n, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::WorkerLoop() {
  t_inside_parallel_task = true;
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return stop_ || generation_ != seen_generation;
    });
    if (stop_) return;
    seen_generation = generation_;
    if (slots_ == 0) continue;  // job already fully staffed (or revoked)
    --slots_;
    ++active_;
    const std::function<void(std::size_t)>& fn = *job_fn_;
    const std::size_t n = job_n_;
    lock.unlock();
    RunChunk(fn, n);
    lock.lock();
    --active_;
    if (active_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(std::size_t n, std::size_t max_threads,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || max_threads <= 1 || workers_.empty() ||
      t_inside_parallel_task) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> call_lock(call_mu_);
  // The calling thread takes one lane; workers may claim the rest.
  const std::size_t slots = std::min({max_threads - 1, workers_.size(), n - 1});
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_fn_ = &fn;
    job_n_ = n;
    cursor_.store(0, std::memory_order_relaxed);
    slots_ = slots;
    error_ = nullptr;
    ++generation_;
  }
  // Wake one worker per free slot, not the whole pool: a woken worker that
  // finds no slot left costs two context switches and competes for the
  // CPUs the job's own lanes run on. A worker not yet asleep sees the new
  // generation before it waits, so no wake-up is lost.
  for (std::size_t i = 0; i < slots; ++i) work_cv_.notify_one();
  // The caller participates with the nested-call guard set: a task that
  // itself calls ParallelFor (from this thread) must run inline rather than
  // re-enter call_mu_, which this thread already holds. RunChunk never
  // throws (exceptions land in error_), so plain save/restore is safe.
  t_inside_parallel_task = true;
  RunChunk(fn, n);
  t_inside_parallel_task = false;
  std::unique_lock<std::mutex> lock(mu_);
  // Revoke unclaimed lanes so no late-waking worker can touch `fn` after
  // this call returns, then wait for the in-flight ones.
  slots_ = 0;
  done_cv_.wait(lock, [&] { return active_ == 0; });
  job_fn_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ParallelFor(std::size_t num_threads, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (num_threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared pool, sized generously so thread-count sweeps (1..8) exercise
  // real concurrency even on small machines; parked workers cost nothing.
  static ThreadPool pool(std::max<std::size_t>(HardwareThreads(), 8));
  pool.ParallelFor(n, num_threads, fn);
}

}  // namespace ldpids
