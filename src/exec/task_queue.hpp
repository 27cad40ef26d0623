// BoundedTaskQueue: the per-shard request queue of FleetServer's async path
// (serve/fleet.hpp). A fixed-capacity FIFO of thunks: producers never block —
// a full (or closed) queue refuses the push so the caller can surface a
// typed resource_exhausted instead of stalling the submitter; consumers
// park on a condition variable until work arrives or the queue closes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>

#include "util/require.hpp"

namespace kami::exec {

class BoundedTaskQueue {
 public:
  explicit BoundedTaskQueue(std::size_t capacity) : capacity_(capacity) {
    KAMI_REQUIRE(capacity > 0, "task queue capacity must be positive");
  }

  /// Enqueue without blocking. Returns false — and does not take the task —
  /// when the queue is full or closed.
  bool try_push(std::function<void()> task) {
    {
      std::lock_guard lock(mu_);
      if (closed_ || tasks_.size() >= capacity_) return false;
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
    return true;
  }

  /// Dequeue the oldest task, blocking while the queue is open but empty.
  /// Returns false only once the queue is closed AND drained.
  bool pop_blocking(std::function<void()>& out) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !tasks_.empty(); });
    if (tasks_.empty()) return false;
    out = std::move(tasks_.front());
    tasks_.pop_front();
    return true;
  }

  /// Non-blocking dequeue: pop the oldest task if one is queued, else return
  /// false immediately (open or closed). The FleetServer's manual-drain mode
  /// uses this to run queued work inline in a deterministic device order.
  bool try_pop(std::function<void()>& out) {
    std::lock_guard lock(mu_);
    if (tasks_.empty()) return false;
    out = std::move(tasks_.front());
    tasks_.pop_front();
    return true;
  }

  /// Refuse all future pushes and wake every parked consumer. Tasks already
  /// queued stay poppable so a draining shutdown completes them.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return tasks_.size();
  }

  std::size_t capacity() const noexcept { return capacity_; }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool closed_ = false;
};

}  // namespace kami::exec
