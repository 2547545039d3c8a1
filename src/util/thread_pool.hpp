// Minimal task-queue thread pool for the service layer.
//
// The pool owns N-1 persistent worker threads for N lanes; the caller of
// drain() is the N-th lane, so a pool of size 1 spawns no workers and
// drain() runs every queued task on the calling thread. Tasks posted with
// post() run on the workers; a throwing task can never wedge the pool —
// the first exception is captured and rethrown on whichever thread calls
// drain() — and the destructor discards tasks that never started. Tasks
// must not call back into the pool (no post-from-task fan-out).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xh {

class ThreadPool {
 public:
  /// Creates a pool with @p lanes total execution lanes (the drain() caller
  /// counts as one, so lanes - 1 workers are spawned). Requires lanes >= 1.
  explicit ThreadPool(std::size_t lanes);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues @p task for execution on a worker thread (or on the next
  /// drain() caller when the pool has no workers). Never blocks. A task
  /// that throws is captured, not lost: the first exception surfaces from
  /// the next drain() call, and the pool keeps running either way.
  void post(std::function<void()> task);

  /// Runs queued tasks on the calling thread until the queue is empty and
  /// every in-flight task has finished, then rethrows the first exception
  /// captured from any task since the last drain() (clearing it).
  void drain();

  /// Tasks queued but not yet started (snapshot; racy by nature).
  std::size_t pending_tasks() const;

 private:
  void worker_loop();
  /// Pops and runs one queued task; @p lock is held on entry and exit but
  /// released around the task body. Captures the task's exception.
  void run_one_task(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a task / shutdown
  std::condition_variable done_cv_;  // drain() waits for in-flight tasks
  bool stop_ = false;
  std::deque<std::function<void()>> tasks_;
  std::size_t tasks_active_ = 0;          // posted tasks mid-execution
  std::exception_ptr task_error_;         // first task exception since drain
  std::vector<std::thread> workers_;
};

}  // namespace xh
