#include "runtime/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace tslrw {

ThreadPool::ThreadPool(const Options& options)
    : queue_capacity_(std::max<size_t>(options.queue_capacity, 1)),
      max_threads_(std::max<size_t>(options.threads, 1)) {
  if (options.metrics != nullptr) {
    submitted_metric_ = options.metrics->GetCounter("pool.submitted");
    rejected_full_metric_ = options.metrics->GetCounter("pool.rejected_full");
    rejected_shutdown_metric_ =
        options.metrics->GetCounter("pool.rejected_shutdown");
    tasks_run_metric_ = options.metrics->GetCounter("pool.tasks_run");
    queue_depth_metric_ = options.metrics->GetGauge("pool.queue_depth");
    depth_at_admit_metric_ =
        options.metrics->GetHistogram("pool.queue_depth_at_admit");
  }
  workers_.reserve(max_threads_);
  if (options.lazy_spawn) return;
  for (size_t i = 0; i < max_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

Status ThreadPool::TrySubmit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      if (rejected_shutdown_metric_ != nullptr) {
        rejected_shutdown_metric_->Increment();
      }
      return Status::Unavailable("thread pool is shutting down");
    }
    if (queue_.size() >= queue_capacity_) {
      // Admission control: reject rather than queue unboundedly. The hint
      // tells the client how deep the backlog is so it can back off
      // proportionally instead of hammering a full queue.
      if (rejected_full_metric_ != nullptr) rejected_full_metric_->Increment();
      return Status::ResourceExhausted(
          StrCat("request queue is full (", queue_.size(), "/",
                 queue_capacity_,
                 "); retry-after: ~1 queued-request-time per waiting task"));
    }
    if (submitted_metric_ != nullptr) {
      submitted_metric_->Increment();
      depth_at_admit_metric_->Observe(queue_.size());
    }
    queue_.push_back(Task{std::move(task)});
    if (queue_depth_metric_ != nullptr) {
      queue_depth_metric_->Set(static_cast<int64_t>(queue_.size()));
    }
    SpawnIfSaturatedLocked();
  }
  work_ready_.notify_one();
  return Status::OK();
}

bool ThreadPool::TrySubmitBackground(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_ || queue_.size() >= queue_capacity_) return false;
    queue_.push_back(Task{std::move(task), /*counted=*/false});
    if (queue_depth_metric_ != nullptr) {
      queue_depth_metric_->Set(static_cast<int64_t>(queue_.size()));
    }
    SpawnIfSaturatedLocked();
  }
  work_ready_.notify_one();
  return true;
}

void ThreadPool::SpawnIfSaturatedLocked() {
  // Lazy spawning: start another worker only when every started worker
  // is busy and the cap allows it. Eager pools start saturated
  // (workers_.size() == max_threads_), so this never fires for them.
  if (workers_.size() < max_threads_ && queue_.size() > idle_workers_) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_ && workers_.empty()) return;
    shutting_down_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_workers_;
      work_ready_.wait(lock,
                       [this] { return shutting_down_ || !queue_.empty(); });
      --idle_workers_;
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      if (queue_depth_metric_ != nullptr) {
        queue_depth_metric_->Set(static_cast<int64_t>(queue_.size()));
      }
    }
    task.run();
    if (tasks_run_metric_ != nullptr && task.counted) {
      tasks_run_metric_->Increment();
    }
  }
}

}  // namespace tslrw
