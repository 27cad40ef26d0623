// ExecutionEngine mechanics (coverage of every index, slot ordering,
// exception selection, nesting, metric-shard merging, fault-hook
// propagation), BoundedTaskQueue backpressure semantics, and the
// concurrency stress suites for MetricRegistry and ProfileCache. The
// stress suites are also the ThreadSanitizer CI job's targets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/profile_cache.hpp"
#include "exec/engine.hpp"
#include "exec/task_queue.hpp"
#include "obs/metrics.hpp"
#include "verify/invariants.hpp"

namespace kami {
namespace {

using exec::BoundedTaskQueue;
using exec::ExecutionEngine;

// The worker count is explicit: clamped to kMaxWorkers, and a count below 1
// is rejected.
TEST(ExecEngine, ResolveWorkersClampsAndDefers) {
  EXPECT_EQ(ExecutionEngine(5).workers(), 5);
  EXPECT_EQ(ExecutionEngine(exec::kMaxWorkers + 100).workers(), exec::kMaxWorkers);
  EXPECT_THROW((void)ExecutionEngine(0), PreconditionError);
  EXPECT_THROW((void)ExecutionEngine(-3), PreconditionError);
}

TEST(ExecEngine, ParallelForRunsEveryIndexExactlyOnce) {
  const ExecutionEngine engine(8);
  EXPECT_EQ(engine.workers(), 8);
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  engine.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ExecEngine, ParallelMapPreservesInputOrder) {
  const ExecutionEngine engine(4);
  const auto out = engine.parallel_map<std::size_t>(257, [](std::size_t i) {
    return i * i;
  });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ExecEngine, ZeroAndSingleTaskDegenerate) {
  const ExecutionEngine engine(4);
  engine.parallel_for(0, [](std::size_t) { FAIL() << "no task should run"; });
  int runs = 0;
  engine.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ExecEngine, WorkerCountOneStaysOnCallerThread) {
  const ExecutionEngine engine(1);
  const std::thread::id caller = std::this_thread::get_id();
  engine.parallel_for(64, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ExecEngine, LowestIndexExceptionPropagates) {
  const ExecutionEngine engine(8);
  // Several indices throw; the serial loop would surface index 3 first.
  for (int round = 0; round < 10; ++round) {
    try {
      engine.parallel_for(100, [&](std::size_t i) {
        if (i == 3 || i == 50 || i == 97)
          throw std::runtime_error("boom at " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 3");
    }
  }
}

TEST(ExecEngine, NestedParallelForCompletes) {
  const ExecutionEngine outer(4), inner(4);
  std::vector<std::size_t> sums(8, 0);
  outer.parallel_for(sums.size(), [&](std::size_t i) {
    const auto parts = inner.parallel_map<std::size_t>(16, [&](std::size_t j) {
      return i * 100 + j;
    });
    sums[i] = std::accumulate(parts.begin(), parts.end(), std::size_t{0});
  });
  for (std::size_t i = 0; i < sums.size(); ++i)
    EXPECT_EQ(sums[i], i * 100 * 16 + 120);
}

TEST(ExecEngine, MetricShardsMergeIntoSubmitter) {
  auto& reg = obs::MetricRegistry::global();
  reg.counter("test.exec.work").reset();
  const ExecutionEngine engine(4);
  engine.parallel_for(100, [](std::size_t) {
    obs::MetricRegistry::current().counter("test.exec.work").add(2.0);
  });
  EXPECT_EQ(reg.counter("test.exec.work").value(), 200.0);
}

TEST(ExecEngine, ShardedHistogramSamplesArriveInTaskIndexOrder) {
  auto& reg = obs::MetricRegistry::global();
  reg.histogram("test.exec.hist").reset();
  const ExecutionEngine engine(8);
  engine.parallel_for(64, [](std::size_t i) {
    obs::MetricRegistry::current().histogram("test.exec.hist").observe(
        static_cast<double>(i));
  });
  const auto samples = reg.histogram("test.exec.hist").samples();
  ASSERT_EQ(samples.size(), 64u);
  for (std::size_t i = 0; i < samples.size(); ++i)
    EXPECT_EQ(samples[i], static_cast<double>(i));
}

TEST(ExecEngine, FaultHooksReachEveryWorkerAndCallerStateSurvives) {
  verify::FaultHooks armed;
  armed.warp_advance_skew = -3.5;
  armed.armed_runs = -1;
  const verify::ScopedFault fault(armed);

  const ExecutionEngine engine(4);
  std::vector<std::atomic<int>> saw(64);
  engine.parallel_for(64, [&](std::size_t i) {
    const verify::FaultHooks& h = verify::fault_hooks();
    if (h.warp_advance_skew == -3.5 && h.armed_runs == -1)
      saw[i].store(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < saw.size(); ++i) EXPECT_EQ(saw[i].load(), 1);
  EXPECT_EQ(verify::fault_hooks().warp_advance_skew, -3.5);
  EXPECT_EQ(verify::fault_hooks().armed_runs, -1);
}

TEST(ExecEngine, RepeatedRegionsReusePoolWithoutLeakingState) {
  const ExecutionEngine engine(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    engine.parallel_for(200, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 200u * 199u / 2u);
  }
}

// ---------------------------------------------------------------------------

TEST(TaskQueue, FifoAndCapacity) {
  BoundedTaskQueue q(2);
  EXPECT_EQ(q.capacity(), 2u);
  std::vector<int> ran;
  EXPECT_TRUE(q.try_push([&] { ran.push_back(1); }));
  EXPECT_TRUE(q.try_push([&] { ran.push_back(2); }));
  EXPECT_FALSE(q.try_push([&] { ran.push_back(3); }));  // full: refused
  EXPECT_EQ(q.size(), 2u);

  std::function<void()> task;
  ASSERT_TRUE(q.pop_blocking(task));
  task();
  ASSERT_TRUE(q.pop_blocking(task));
  task();
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
}

TEST(TaskQueue, CloseRefusesPushesButDrainsQueued) {
  BoundedTaskQueue q(4);
  int ran = 0;
  EXPECT_TRUE(q.try_push([&] { ++ran; }));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push([&] { ++ran; }));

  std::function<void()> task;
  ASSERT_TRUE(q.pop_blocking(task));  // queued before close: still served
  task();
  EXPECT_FALSE(q.pop_blocking(task));  // closed and drained
  EXPECT_EQ(ran, 1);
}

TEST(TaskQueue, CloseWakesBlockedConsumer) {
  BoundedTaskQueue q(1);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    std::function<void()> task;
    EXPECT_FALSE(q.pop_blocking(task));  // wakes on close with nothing queued
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(TaskQueue, ConcurrentProducersNeverExceedCapacity) {
  BoundedTaskQueue q(8);
  std::atomic<int> accepted{0}, refused{0}, executed{0};
  std::thread consumer([&] {
    std::function<void()> task;
    while (q.pop_blocking(task)) task();
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (q.try_push([&] { executed.fetch_add(1); }))
          accepted.fetch_add(1);
        else
          refused.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();
  EXPECT_EQ(accepted.load() + refused.load(), 800);
  EXPECT_EQ(executed.load(), accepted.load());
}

// ---------------------------------------------------------------------------
// MetricRegistry under real concurrency (the ThreadSanitizer CI targets).

TEST(MetricsConcurrency, CountersGaugesHistogramsUnderContention) {
  obs::MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kOps; ++i) {
        reg.counter("stress.counter").add(1.0);
        reg.gauge("stress.gauge").set_max(static_cast<double>(t * kOps + i));
        reg.histogram("stress.hist").observe(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("stress.counter").value(), kThreads * kOps);
  EXPECT_EQ(reg.gauge("stress.gauge").value(), kThreads * kOps - 1);
  EXPECT_EQ(reg.histogram("stress.hist").count(),
            static_cast<std::size_t>(kThreads) * kOps);
}

TEST(MetricsConcurrency, ConcurrentCreationYieldsOneNodePerName) {
  obs::MetricRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 200; ++i)
        reg.counter("create." + std::to_string(i)).increment();
    });
  }
  for (auto& t : threads) t.join();
  const auto values = reg.counter_values();
  EXPECT_EQ(values.size(), 200u);
  for (const auto& [name, v] : values) EXPECT_EQ(v, kThreads) << name;
}

TEST(MetricsConcurrency, MergeFromAddsCountersMaxesGaugesAppendsHistograms) {
  obs::MetricRegistry a, b;
  a.counter("c").add(3.0);
  a.gauge("g").set_max(5.0);
  a.histogram("h").observe(1.0);
  b.counter("c").add(4.0);
  b.counter("only_b").add(1.0);
  b.gauge("g").set_max(2.0);
  b.histogram("h").observe(2.0);
  b.histogram("h").observe(3.0);

  a.merge_from(b);
  EXPECT_EQ(a.counter("c").value(), 7.0);
  EXPECT_EQ(a.counter("only_b").value(), 1.0);
  EXPECT_EQ(a.gauge("g").value(), 5.0);
  EXPECT_EQ(a.histogram("h").samples(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(MetricsConcurrency, ScopedShardRedirectsOnlyThisThread) {
  obs::MetricRegistry shard;
  EXPECT_EQ(&obs::MetricRegistry::current(), &obs::MetricRegistry::global());
  {
    const obs::ScopedMetricShard scoped(shard);
    EXPECT_EQ(&obs::MetricRegistry::current(), &shard);
    std::thread other([] {
      EXPECT_EQ(&obs::MetricRegistry::current(), &obs::MetricRegistry::global());
    });
    other.join();
  }
  EXPECT_EQ(&obs::MetricRegistry::current(), &obs::MetricRegistry::global());
}

// ---------------------------------------------------------------------------
// ProfileCache under real concurrency (the ThreadSanitizer CI targets).

TEST(ProfileCacheConcurrency, ConcurrentTimingProfilesAgreeWithSerial) {
  const sim::DeviceSpec& dev = sim::gh200();
  core::ProfileCache cache(64);

  // Serial reference profiles for a few shapes.
  std::vector<std::size_t> sizes{32, 64, 96, 128};
  std::vector<core::CachedProfile> want;
  {
    core::ProfileCache fresh(64);
    for (std::size_t s : sizes)
      want.push_back(
          core::timing_profile<fp16_t>(fresh, core::Algo::OneD, dev, s, s, s));
  }

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 6; ++round) {
        for (std::size_t idx = 0; idx < sizes.size(); ++idx) {
          const std::size_t s = sizes[idx];
          const core::CachedProfile got =
              core::timing_profile<fp16_t>(cache, core::Algo::OneD, dev, s, s, s);
          if (got.profile.latency != want[idx].profile.latency ||
              got.profile.useful_flops != want[idx].profile.useful_flops ||
              got.warps != want[idx].warps)
            mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(cache.size(), 64u);
}

// Regression for the contains()-then-lookup TOCTOU: under constant eviction
// churn, a try_get() that returns a value must return a *complete* value —
// the old presence-check API let the entry vanish between the two steps.
// Run under ThreadSanitizer in CI.
TEST(ProfileCacheConcurrency, TryGetUnderEvictionChurnNeverTearsValues) {
  core::ProfileCache cache(8);  // tiny capacity: every insert evicts
  constexpr int kThreads = 8;
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &torn, t] {
      for (int i = 0; i < 400; ++i) {
        core::ProfileKey key;
        key.device = "churn";
        key.m = static_cast<std::size_t>((t * 400 + i) % 24);
        key.n = key.m;
        key.k = 2;
        if (t % 2 == 0) {
          core::CachedProfile value;
          value.profile.latency = static_cast<double>(key.m) + 1.0;
          value.warps = static_cast<int>(key.m) + 1;
          cache.insert(key, value);
        } else if (const auto hit = cache.try_get(key)) {
          // The copy must be internally consistent (both fields from the
          // same insert), not a presence answer whose entry then vanished.
          if (hit->profile.latency != static_cast<double>(key.m) + 1.0 ||
              hit->warps != static_cast<int>(key.m) + 1)
            torn.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_LE(cache.size(), 8u);
  // snapshot() under the same churn must also be a consistent copy.
  for (const auto& [key, value] : cache.snapshot())
    EXPECT_EQ(value.profile.latency, static_cast<double>(key.m) + 1.0);
}

TEST(ProfileCacheConcurrency, InsertFindChurnStaysConsistent) {
  core::ProfileCache cache(16);  // small capacity: constant eviction churn
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 300; ++i) {
        core::ProfileKey key;
        key.device = "stress";
        key.m = static_cast<std::size_t>((t * 300 + i) % 40);
        key.n = key.m;
        key.k = 1;
        core::CachedProfile value;
        value.profile.useful_flops = static_cast<double>(key.m);
        cache.insert(key, value);
        if (const auto hit = cache.find(key)) {
          EXPECT_EQ(hit->profile.useful_flops, static_cast<double>(key.m));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.size(), 16u);
}

}  // namespace
}  // namespace kami
