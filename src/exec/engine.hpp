// ExecutionEngine: a work-stealing thread-pool for the repo's replication
// fan-outs — chaos campaign points, differential and model fuzz points —
// where one task is a whole, independent point. Library calls (a GEMM, a
// batch, an autotune sweep) never run on it: they are serial.
//
// Design constraints, in order:
//   * deterministic — results land in pre-sized slots indexed by input
//     order, per-task metric shards are merged back in task-index order, and
//     the lowest-index exception is the one that propagates, so output is
//     bit-identical to the serial loop for every worker count >= 2 (see
//     DESIGN §10 for the exact contract, including the one documented
//     last-ulp caveat for fractional counters vs workers=1);
//   * workers == 1 IS the serial path — no shards, no snapshotting, no pool,
//     byte-for-byte the plain loop;
//   * safe to nest — a task may call parallel_for again; the nested caller
//     always drains its own stripes, so progress never depends on a free
//     pool thread.
//
// Scheduling: each parallel region stripes its indices round-robin across
// min(workers, n) mutexed deques. The calling thread participates as
// stripe 0; persistent pool threads attach as the remaining stripes. A
// participant pops its own stripe from the back and, when empty, steals from
// other stripes' front — classic work-stealing, so a stripe that drew the
// slow tasks sheds them to idle participants.
//
// Shared state audit (what makes fn safe to run concurrently): ProfileCache
// is mutex-guarded with copy-out lookups; MetricRegistry counters/gauges are
// relaxed atomics and each task additionally publishes into its own shard
// via obs::MetricRegistry::current(); verify::fault_hooks() is thread-local
// and the engine re-installs the submitting thread's hooks in every task.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/require.hpp"
#include "verify/invariants.hpp"

namespace kami::exec {

/// Hard cap on workers. Oversubscription past the core count is allowed
/// (and benchmarked), but runaway counts are clamped here.
inline constexpr int kMaxWorkers = 64;

class ExecutionEngine {
 public:
  /// `workers` >= 1, clamped to kMaxWorkers; 1 is the serial loop.
  explicit ExecutionEngine(int workers) : workers_(std::min(workers, kMaxWorkers)) {
    KAMI_REQUIRE(workers >= 1,
                 "an execution engine needs at least one worker, got " +
                     std::to_string(workers));
  }

  int workers() const noexcept { return workers_; }

  /// Run fn(0) .. fn(n-1), distributed across workers. Blocks until every
  /// index has run. Each task sees the submitting thread's FaultHooks and
  /// publishes metrics into a per-task shard; shards are merged back into
  /// the submitter's MetricRegistry::current() in index order. If any
  /// indices throw, the shards of tasks past the lowest failing index are
  /// discarded and that lowest-index exception is rethrown — exactly the
  /// state a serial loop would have left behind.
  template <class Fn>
  void parallel_for(std::size_t n, Fn&& fn) const {
    if (workers_ <= 1 || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    obs::MetricRegistry& parent = obs::MetricRegistry::current();
    const verify::FaultHooks hooks = verify::fault_hooks();
    // deque, not vector: MetricRegistry holds a mutex and is immovable.
    std::deque<obs::MetricRegistry> shards(n);
    std::vector<std::exception_ptr> errors(n);
    const auto task = [&](std::size_t i) {
      verify::ScopedFault fault(hooks);
      obs::ScopedMetricShard shard(shards[i]);
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    };
    run_region(n, task);
    for (std::size_t i = 0; i < n; ++i) {
      parent.merge_from(shards[i]);
      if (errors[i]) std::rethrow_exception(errors[i]);
    }
  }

  /// parallel_for that collects fn(i) into a pre-sized vector slot i.
  /// T must be default-constructible and move-assignable.
  template <class T, class Fn>
  std::vector<T> parallel_map(std::size_t n, Fn&& fn) const {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  /// Scheduling core (engine.cpp): stripes indices, enlists pool threads,
  /// participates from the calling thread, blocks until all tasks ran.
  /// `task` must not throw (parallel_for wraps exceptions per index).
  void run_region(std::size_t n, const std::function<void(std::size_t)>& task) const;

  int workers_;
};

}  // namespace kami::exec
