// The engine's determinism contract (DESIGN §10), tested end to end: every
// fan-out site — batched GEMM, autotune sweeps, the chaos campaign, the
// differential fuzzer — must produce bit-identical results for every worker
// count, in every execution mode, including under armed FaultHooks and
// cycle deadlines. Serial (workers=1) runs the historical inline loop;
// parallel runs shard metrics and merge in task-index order, so snapshots
// of integral counters match serial exactly and full snapshots match across
// any two parallel worker counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/autotune.hpp"
#include "core/batched.hpp"
#include "core/kami.hpp"
#include "core/profile_cache.hpp"
#include "obs/metrics.hpp"
#include "serve/chaos.hpp"
#include "sim/deadline.hpp"
#include "util/rng.hpp"
#include "verify/differential.hpp"
#include "verify/invariants.hpp"

namespace kami {
namespace {

template <Scalar T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// A mixed-shape batch with repeated shapes (exercises the distinct-shape
/// profile phase) seeded deterministically.
template <Scalar T>
std::pair<std::vector<Matrix<T>>, std::vector<Matrix<T>>> mixed_batch(
    std::uint64_t seed = 7) {
  Rng rng(seed);
  const std::size_t shapes[][3] = {{32, 32, 32}, {64, 64, 64},  {32, 32, 32},
                                   {48, 16, 64}, {64, 64, 64},  {16, 48, 32},
                                   {32, 32, 32}, {64, 32, 128}, {48, 16, 64},
                                   {64, 64, 64}, {32, 64, 32},  {16, 48, 32}};
  std::vector<Matrix<T>> As, Bs;
  for (const auto& s : shapes) {
    As.push_back(random_matrix<T>(s[0], s[2], rng));
    Bs.push_back(random_matrix<T>(s[2], s[1], rng));
  }
  return {std::move(As), std::move(Bs)};
}

template <Scalar T>
void expect_batched_identical(const core::BatchedResult<T>& a,
                              const core::BatchedResult<T>& b,
                              const std::string& label) {
  ASSERT_EQ(a.C.size(), b.C.size()) << label;
  for (std::size_t i = 0; i < a.C.size(); ++i)
    EXPECT_TRUE(bits_equal(a.C[i], b.C[i])) << label << " entry " << i;
  EXPECT_EQ(a.seconds, b.seconds) << label;
  EXPECT_EQ(a.tflops, b.tflops) << label;
}

TEST(ParallelDeterminism, BatchedBitIdenticalAcrossWorkerCountsAndModes) {
  const sim::DeviceSpec& dev = sim::gh200();
  const auto [As, Bs] = mixed_batch<fp16_t>();

  for (const sim::ExecMode mode : {sim::ExecMode::Full, sim::ExecMode::TimingOnly}) {
    const auto run = [&](int threads) {
      core::ProfileCache::global().clear();
      core::GemmOptions opt;
      opt.mode = mode;
      opt.threads = threads;
      return core::kami_batched_gemm<fp16_t>(dev, As, Bs, core::Algo::OneD, opt);
    };
    const auto serial = run(1);
    const std::string label = "mode " + std::to_string(static_cast<int>(mode));
    expect_batched_identical(serial, run(2), label + " workers=2");
    expect_batched_identical(serial, run(4), label + " workers=4");
    expect_batched_identical(serial, run(8), label + " workers=8");
  }

  // NumericsOnly produces no cycle profile, so the batched driver's
  // completion-time model rejects it — identically for every worker count.
  const auto numerics_message = [&](int threads) -> std::string {
    core::GemmOptions opt;
    opt.mode = sim::ExecMode::NumericsOnly;
    opt.threads = threads;
    try {
      core::kami_batched_gemm<fp16_t>(dev, As, Bs, core::Algo::OneD, opt);
    } catch (const std::exception& e) {
      return e.what();
    }
    return "(no exception)";
  };
  const std::string serial_numerics = numerics_message(1);
  ASSERT_NE(serial_numerics, "(no exception)");
  EXPECT_EQ(numerics_message(4), serial_numerics);
}

TEST(ParallelDeterminism, BatchedDoublePrecisionAndTwoD) {
  const sim::DeviceSpec& dev = sim::gh200();
  const auto [As, Bs] = mixed_batch<double>(11);
  const auto run = [&](int threads) {
    core::ProfileCache::global().clear();
    core::GemmOptions opt;
    opt.threads = threads;
    return core::kami_batched_gemm<double>(dev, As, Bs, core::Algo::TwoD, opt);
  };
  const auto serial = run(1);
  expect_batched_identical(serial, run(4), "fp64 2d workers=4");
}

TEST(ParallelDeterminism, AutotuneIdenticalAcrossWorkerCounts) {
  const sim::DeviceSpec& dev = sim::gh200();
  const auto run = [&](int threads) {
    // Reset both fast-path stores: the predictor's calibration state decides
    // what the prescreen prunes, so every worker count must start equally
    // cold for the sweep (and the fold's feedback) to be comparable.
    core::ProfileCache::global().clear();
    model::Predictor::global().reset();
    return core::autotune_gemm<fp16_t>(dev, 128, 128, 128, 16384,
                                       core::default_candidates(), threads);
  };
  const core::TuneResult serial = run(1);
  for (const int threads : {2, 4, 8}) {
    const core::TuneResult parallel = run(threads);
    EXPECT_EQ(parallel.config.algo, serial.config.algo) << threads;
    EXPECT_EQ(parallel.config.warps, serial.config.warps) << threads;
    EXPECT_EQ(parallel.config.smem_ratio, serial.config.smem_ratio) << threads;
    EXPECT_EQ(parallel.tflops, serial.tflops) << threads;
    EXPECT_EQ(parallel.warps, serial.warps) << threads;
    EXPECT_EQ(parallel.smem_ratio, serial.smem_ratio) << threads;
    EXPECT_EQ(parallel.evaluated, serial.evaluated) << threads;
    EXPECT_EQ(parallel.pruned, serial.pruned) << threads;
    EXPECT_EQ(verify::profile_diff(parallel.profile, serial.profile), "") << threads;
  }
}

TEST(ParallelDeterminism, ChaosCampaignReportIdenticalAcrossWorkerCounts) {
  const serve::ChaosReport serial = serve::run_campaign(21, 40, 1);
  for (const int workers : {2, 4, 8}) {
    const serve::ChaosReport parallel = serve::run_campaign(21, 40, workers);
    EXPECT_EQ(parallel.ran, serial.ran) << workers;
    EXPECT_EQ(parallel.served_ok, serial.served_ok) << workers;
    EXPECT_EQ(parallel.typed_errors, serial.typed_errors) << workers;
    EXPECT_EQ(parallel.failovers, serial.failovers) << workers;
    EXPECT_EQ(parallel.hedged, serial.hedged) << workers;
    EXPECT_EQ(parallel.storm_requests, serial.storm_requests) << workers;
    EXPECT_EQ(parallel.storm_rejected, serial.storm_rejected) << workers;
    EXPECT_EQ(parallel.by_code, serial.by_code) << workers;
    EXPECT_EQ(parallel.by_rung, serial.by_rung) << workers;
    EXPECT_EQ(parallel.by_fault, serial.by_fault) << workers;
    EXPECT_EQ(parallel.by_device, serial.by_device) << workers;
    EXPECT_EQ(parallel.by_fleet, serial.by_fleet) << workers;
    ASSERT_EQ(parallel.violations.size(), serial.violations.size()) << workers;
    for (std::size_t i = 0; i < serial.violations.size(); ++i) {
      EXPECT_EQ(parallel.violations[i].seed, serial.violations[i].seed);
      EXPECT_EQ(parallel.violations[i].point, serial.violations[i].point);
      EXPECT_EQ(parallel.violations[i].detail, serial.violations[i].detail);
    }
  }
  EXPECT_TRUE(serial.clean());
}

TEST(ParallelDeterminism, FuzzReportIdenticalAcrossWorkerCounts) {
  const verify::FuzzReport serial = verify::run_fuzz(33, 24, 1);
  for (const int workers : {2, 4}) {
    const verify::FuzzReport parallel = verify::run_fuzz(33, 24, workers);
    EXPECT_EQ(parallel.ran, serial.ran) << workers;
    EXPECT_EQ(parallel.passed, serial.passed) << workers;
    EXPECT_EQ(parallel.skipped, serial.skipped) << workers;
    ASSERT_EQ(parallel.failures.size(), serial.failures.size()) << workers;
    for (std::size_t i = 0; i < serial.failures.size(); ++i) {
      EXPECT_EQ(parallel.failures[i].seed, serial.failures[i].seed);
      EXPECT_EQ(parallel.failures[i].detail, serial.failures[i].detail);
    }
  }
}

TEST(ParallelDeterminism, ArmedFaultThrowsSameMessageSerialAndParallel) {
  const sim::DeviceSpec& dev = sim::gh200();
  const auto [As, Bs] = mixed_batch<fp16_t>();
  verify::FaultHooks armed;
  armed.warp_advance_skew = -1e9;  // permanent clock-rewind: every run throws
  armed.armed_runs = -1;

  const auto message_at = [&](int threads) -> std::string {
    core::ProfileCache::global().clear();
    const verify::ScopedFault fault(armed);
    core::GemmOptions opt;
    opt.threads = threads;
    try {
      core::kami_batched_gemm<fp16_t>(dev, As, Bs, core::Algo::OneD, opt);
    } catch (const verify::InvariantViolation& e) {
      return e.what();
    }
    return "(no exception)";
  };

  const std::string serial = message_at(1);
  ASSERT_NE(serial, "(no exception)");
  EXPECT_EQ(message_at(4), serial);
  EXPECT_EQ(message_at(8), serial);
}

TEST(ParallelDeterminism, DeadlineAbortMessageSameSerialAndParallel) {
  const sim::DeviceSpec& dev = sim::gh200();
  const auto [As, Bs] = mixed_batch<fp16_t>();

  const auto message_at = [&](int threads) -> std::string {
    core::ProfileCache::global().clear();
    core::GemmOptions opt;
    opt.threads = threads;
    opt.deadline_cycles = 10.0;  // aborts inside the first profile simulation
    try {
      core::kami_batched_gemm<fp16_t>(dev, As, Bs, core::Algo::OneD, opt);
    } catch (const sim::DeadlineExceeded& e) {
      return e.what();
    }
    return "(no exception)";
  };

  const std::string serial = message_at(1);
  ASSERT_NE(serial, "(no exception)");
  EXPECT_EQ(message_at(4), serial);
}

TEST(ParallelDeterminism, MetricSnapshotsIdenticalBetweenParallelWorkerCounts) {
  // Contract (DESIGN §10): any two worker counts >= 2 produce exactly the
  // same merged snapshot — counters, gauges, everything. (Serial vs parallel
  // fractional counters may differ in the last ulp; see the next test.)
  const sim::DeviceSpec& dev = sim::gh200();
  const auto [As, Bs] = mixed_batch<fp16_t>();
  const auto snapshot = [&](int threads) {
    core::ProfileCache::global().clear();
    obs::MetricRegistry::global().reset_values();
    core::GemmOptions opt;
    opt.threads = threads;
    core::kami_batched_gemm<fp16_t>(dev, As, Bs, core::Algo::OneD, opt);
    return std::pair{obs::MetricRegistry::global().counter_values(),
                     obs::MetricRegistry::global().gauge_values()};
  };
  const auto two = snapshot(2);
  const auto four = snapshot(4);
  const auto eight = snapshot(8);
  EXPECT_EQ(two.first, four.first);
  EXPECT_EQ(two.second, four.second);
  EXPECT_EQ(four.first, eight.first);
  EXPECT_EQ(four.second, eight.second);
}

TEST(ParallelDeterminism, SerialAndParallelCountersAgree) {
  // Serial updates the global registry in place; parallel folds per-task
  // shards. Integral counters (event counts) must agree exactly; fractional
  // ones (cycle/byte totals) may differ only by reassociation ulps.
  const sim::DeviceSpec& dev = sim::gh200();
  const auto [As, Bs] = mixed_batch<fp16_t>();
  const auto snapshot = [&](int threads) {
    core::ProfileCache::global().clear();
    obs::MetricRegistry::global().reset_values();
    core::GemmOptions opt;
    opt.threads = threads;
    core::kami_batched_gemm<fp16_t>(dev, As, Bs, core::Algo::OneD, opt);
    return obs::MetricRegistry::global().counter_values();
  };
  const auto serial = snapshot(1);
  const auto parallel = snapshot(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [name, value] : serial) {
    const auto it = parallel.find(name);
    ASSERT_NE(it, parallel.end()) << name;
    if (value == std::rint(value))
      EXPECT_EQ(it->second, value) << name;
    else
      EXPECT_NEAR(it->second, value, std::abs(value) * 1e-12) << name;
  }
}

}  // namespace
}  // namespace kami
