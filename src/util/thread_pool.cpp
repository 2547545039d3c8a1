#include "util/thread_pool.hpp"

#include "util/check.hpp"

namespace xh {

ThreadPool::ThreadPool(std::size_t lanes) {
  XH_REQUIRE(lanes >= 1, "ThreadPool needs at least one lane");
  workers_.reserve(lanes - 1);
  for (std::size_t i = 0; i + 1 < lanes; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run_one_task(std::unique_lock<std::mutex>& lock) {
  std::function<void()> task = std::move(tasks_.front());
  tasks_.pop_front();
  ++tasks_active_;
  lock.unlock();
  std::exception_ptr error;
  try {
    task();
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  --tasks_active_;
  if (error && !task_error_) task_error_ = error;
  if (tasks_.empty() && tasks_active_ == 0) done_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
    if (stop_) return;
    run_one_task(lock);
  }
}

void ThreadPool::post(std::function<void()> task) {
  XH_REQUIRE(task != nullptr, "ThreadPool::post requires a callable task");
  {
    std::lock_guard<std::mutex> lock(mu_);
    XH_ASSERT(!stop_, "ThreadPool::post after shutdown began");
    tasks_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    while (!tasks_.empty()) run_one_task(lock);
    if (tasks_active_ == 0) break;
    done_cv_.wait(lock,
                  [&] { return !tasks_.empty() || tasks_active_ == 0; });
  }
  if (task_error_) {
    std::exception_ptr error = task_error_;
    task_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

std::size_t ThreadPool::pending_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_.size();
}

}  // namespace xh
