#ifndef TSLRW_RUNTIME_THREAD_POOL_H_
#define TSLRW_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace tslrw {

/// \brief A fixed-size worker pool with a bounded request queue and
/// admission control: when the queue is full, TrySubmit rejects with
/// kResourceExhausted instead of queueing unboundedly, so overload degrades
/// into fast, explicit push-back rather than memory growth.
///
/// Thread safety: all public members may be called from any thread.
class ThreadPool {
 public:
  struct Options {
    /// Worker threads; 0 behaves as 1.
    size_t threads = 4;
    /// Tasks admitted but not yet running; 0 behaves as 1. Tasks already
    /// executing do not count against the queue.
    size_t queue_capacity = 128;
    /// When true, worker threads are spawned on demand (at TrySubmit, when
    /// no idle worker can take the task) instead of all at construction.
    /// A pool sized for the worst case then only pays thread start-up for
    /// the concurrency a workload actually reaches — short-lived pools
    /// over a handful of tasks skip most of it. `threads` stays the cap.
    bool lazy_spawn = false;
    /// Optional metric sink (not owned; must outlive the pool). Publishes
    /// `pool.submitted` / `pool.rejected_full` / `pool.rejected_shutdown` /
    /// `pool.tasks_run` counters, a `pool.queue_depth` gauge, and a
    /// `pool.queue_depth_at_admit` histogram.
    MetricRegistry* metrics = nullptr;
  };

  explicit ThreadPool(const Options& options);
  /// Drains every admitted task, then joins the workers (tasks admitted
  /// before destruction always run — their futures must complete).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Admits \p task, or rejects with kResourceExhausted (queue full — the
  /// message carries a retry-after hint) / kUnavailable (shutting down).
  Status TrySubmit(std::function<void()> task);

  /// Queues \p task as background housekeeping rather than a request: it
  /// moves no pool.* counter or histogram (the `pool.queue_depth` gauge
  /// still tracks the queue it occupies). Returns false when the queue is
  /// full or the pool is shutting down; \p task is then destroyed, unrun,
  /// before this returns.
  bool TrySubmitBackground(std::function<void()> task);

  /// Stops admitting work, drains the queue, and joins. Idempotent; also
  /// run by the destructor.
  void Shutdown();

  size_t threads() const { return max_threads_; }
  size_t queue_capacity() const { return queue_capacity_; }
  size_t queue_depth() const;

 private:
  struct Task {
    std::function<void()> run;
    bool counted = true;  ///< false for TrySubmitBackground housekeeping
  };

  void WorkerLoop();
  /// Lazy spawning; expects mu_.
  void SpawnIfSaturatedLocked();

  const size_t queue_capacity_;
  const size_t max_threads_;
  /// Metric handles resolved once at construction (null when Options had
  /// no registry), so the hot path pays one branch + one relaxed add.
  Counter* submitted_metric_ = nullptr;
  Counter* rejected_full_metric_ = nullptr;
  Counter* rejected_shutdown_metric_ = nullptr;
  Counter* tasks_run_metric_ = nullptr;
  Gauge* queue_depth_metric_ = nullptr;
  Histogram* depth_at_admit_metric_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<Task> queue_;
  bool shutting_down_ = false;
  size_t idle_workers_ = 0;  // workers blocked in work_ready_.wait
  std::vector<std::thread> workers_;
};

}  // namespace tslrw

#endif  // TSLRW_RUNTIME_THREAD_POOL_H_
