// Minimal fixed-size thread pool for the serving path and offline training.
//
// MalivaService::ServeBatch fans requests out over a pool of workers; each
// request is independent (per-request RewriteSession, shared-immutable
// ServingState), so the pool needs no futures or task graphs — just Submit
// and a blocking ParallelFor that the calling thread helps drain. The
// training prefill runs on the one process-wide Shared() pool. Header-only;
// links against std::thread (Threads::Threads in CMake).

#ifndef MALIVA_UTIL_THREAD_POOL_H_
#define MALIVA_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace maliva {

/// Fixed set of worker threads draining a FIFO task queue. Destruction waits
/// for every submitted task to finish.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    if (num_threads == 0) num_threads = 1;
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Hardware concurrency with a floor of 1 (hardware_concurrency may
  /// report 0 on exotic platforms).
  static size_t DefaultThreads() {
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<size_t>(n);
  }

  /// The process-wide pool (DefaultThreads() workers, created on first use)
  /// for offline work every service shares, such as the training prefill.
  /// One pool rather than one per service or per call: glibc gives each
  /// allocating thread its own malloc arena, and every extra set of workers
  /// keeps its arenas resident (DESIGN.md "Training prefill").
  static ThreadPool& Shared() {
    static ThreadPool pool(DefaultThreads());
    return pool;
  }

  /// Enqueues one task. Tasks must not throw.
  void Submit(std::function<void()> task) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++pending_;
      queue_.push_back(std::move(task));
    }
    wake_.notify_one();
  }

  /// Blocks until every task submitted so far has completed.
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return pending_ == 0; });
  }

  /// Tasks submitted but not yet completed (queued + currently running).
  /// The admission control plane reads this as its load signal; like any
  /// concurrent gauge it is exact only at the instant of the read.
  size_t PendingTasks() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return pending_;
  }

  /// Tasks enqueued but not yet claimed by a worker (PendingTasks() minus
  /// the ones currently running).
  size_t QueueDepth() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return queue_.size();
  }

  /// Runs fn(0..n-1), spreading indices over the workers and the calling
  /// thread, and blocks until all n calls return. Indices are claimed from a
  /// shared atomic counter, so uneven per-index costs balance automatically.
  /// The caller claims indices too, so a call never queues behind other
  /// callers' tasks: with every worker busy, the caller runs all n indices
  /// itself, and a lane that starts after that finds none left and never
  /// touches fn. Completion is tracked per call, not via the pool-global
  /// Wait(): concurrent ParallelFor calls sharing one pool (e.g. two fleet
  /// batches) only wait for their own indices, never for each other's tasks.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    if (n == 0) return;
    struct CallState {
      std::atomic<size_t> next{0};
      std::mutex mutex;
      std::condition_variable done;
      size_t finished = 0;  // indices whose fn call has returned
    };
    auto state = std::make_shared<CallState>();
    // fn by reference is safe: it is only called for an index below n, and
    // this call returns only after all n of those calls have.
    auto drain = [state, n, &fn] {
      size_t ran = 0;
      for (size_t i = state->next.fetch_add(1); i < n; i = state->next.fetch_add(1)) {
        fn(i);
        ++ran;
      }
      if (ran == 0) return;
      std::unique_lock<std::mutex> lock(state->mutex);
      state->finished += ran;
      if (state->finished == n) state->done.notify_all();
    };
    // The caller is one lane, so at most n - 1 more can find work.
    size_t lanes = std::min(n - 1, num_threads());
    for (size_t lane = 0; lane < lanes; ++lane) Submit(drain);
    drain();
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&state, n] { return state->finished == n; });
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (--pending_ == 0) idle_.notify_all();
      }
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t pending_ = 0;
  bool stop_ = false;
};

}  // namespace maliva

#endif  // MALIVA_UTIL_THREAD_POOL_H_
