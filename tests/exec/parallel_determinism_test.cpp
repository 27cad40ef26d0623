// The engine's determinism contract (DESIGN §10), tested end to end on its
// replication fan-outs — the chaos campaign and the differential fuzzer —
// and on a raw parallel_map over kami::gemm: reports, error messages and
// metric snapshots must be identical for every worker count, including under
// armed FaultHooks and cycle deadlines. Serial (workers=1) runs the plain
// loop; parallel runs shard metrics and merge in task-index order, so
// snapshots of integral counters match serial exactly and full snapshots
// match across any two parallel worker counts.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/kami.hpp"
#include "exec/engine.hpp"
#include "obs/metrics.hpp"
#include "serve/chaos.hpp"
#include "sim/deadline.hpp"
#include "util/rng.hpp"
#include "verify/differential.hpp"
#include "verify/invariants.hpp"

namespace kami {
namespace {

constexpr std::uint64_t kFuzzSeed = 33;
constexpr std::size_t kFuzzIters = 24;

void expect_fuzz_identical(const verify::FuzzReport& a, const verify::FuzzReport& b,
                           const std::string& label) {
  EXPECT_EQ(a.ran, b.ran) << label;
  EXPECT_EQ(a.passed, b.passed) << label;
  EXPECT_EQ(a.skipped, b.skipped) << label;
  ASSERT_EQ(a.failures.size(), b.failures.size()) << label;
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].seed, b.failures[i].seed) << label;
    EXPECT_EQ(a.failures[i].detail, b.failures[i].detail) << label;
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
  const verify::FuzzReport serial = verify::run_fuzz(kFuzzSeed, kFuzzIters, 1);
  for (const int workers : {2, 4})
    expect_fuzz_identical(serial, verify::run_fuzz(kFuzzSeed, kFuzzIters, workers),
                          "workers=" + std::to_string(workers));
}

TEST(ParallelDeterminism, ArmedFaultThrowsSameMessageSerialAndParallel) {
  // The engine replays the submitter's FaultHooks in every task, so each
  // fuzz point meets the fault exactly as it would serially: every feasible
  // point's simulation throws, and the report records the same message per
  // seed at every worker count.
  verify::FaultHooks armed;
  armed.warp_advance_skew = -1e9;  // permanent clock-rewind: every run throws
  armed.armed_runs = -1;
  const auto run = [&](int workers) {
    const verify::ScopedFault fault(armed);
    return verify::run_fuzz(kFuzzSeed, kFuzzIters, workers);
  };

  const verify::FuzzReport serial = run(1);
  ASSERT_FALSE(serial.failures.empty());
  for (const auto& f : serial.failures)
    EXPECT_NE(f.detail.find("monotonically"), std::string::npos) << f.detail;
  expect_fuzz_identical(serial, run(4), "workers=4");
  expect_fuzz_identical(serial, run(8), "workers=8");
}

TEST(ParallelDeterminism, DeadlineAbortMessageSameSerialAndParallel) {
  // A deadline the first (32^3) entry meets exactly and the second (64^3)
  // entry blows: whatever later entries do, the lowest failing index — entry
  // 1 — is the abort every worker count reports.
  const sim::DeviceSpec& dev = sim::gh200();
  Rng rng(7);
  const std::size_t shapes[][3] = {{32, 32, 32}, {64, 64, 64}, {48, 16, 64},
                                   {64, 64, 64}, {16, 48, 32}, {64, 32, 128}};
  std::vector<Matrix<fp16_t>> As, Bs;
  for (const auto& s : shapes) {
    As.push_back(random_matrix<fp16_t>(s[0], s[2], rng));
    Bs.push_back(random_matrix<fp16_t>(s[2], s[1], rng));
  }
  GemmOptions opt;
  opt.deadline_cycles = kami::gemm(Algo::OneD, dev, As[0], Bs[0]).profile.latency;

  const auto message_at = [&](int workers, std::size_t first, std::size_t n) {
    try {
      (void)exec::ExecutionEngine(workers).parallel_map<GemmResult<fp16_t>>(
          n, [&](std::size_t i) {
            return kami::gemm(Algo::OneD, dev, As[first + i], Bs[first + i], opt);
          });
    } catch (const sim::DeadlineExceeded& e) {
      return std::string(e.what());
    }
    return std::string("(no exception)");
  };

  EXPECT_EQ(message_at(1, 0, 1), "(no exception)");
  const std::string entry1 = message_at(1, 1, 1);
  ASSERT_NE(entry1, "(no exception)");
  EXPECT_EQ(message_at(1, 0, As.size()), entry1);
  EXPECT_EQ(message_at(4, 0, As.size()), entry1);
  EXPECT_EQ(message_at(8, 0, As.size()), entry1);
}

TEST(ParallelDeterminism, MetricSnapshotsIdenticalBetweenParallelWorkerCounts) {
  // Contract (DESIGN §10): any two worker counts >= 2 produce exactly the
  // same merged snapshot — counters, gauges, everything. (Serial vs parallel
  // fractional counters may differ in the last ulp; see the next test.)
  const auto snapshot = [](int workers) {
    obs::MetricRegistry::global().reset_values();
    (void)verify::run_fuzz(kFuzzSeed, kFuzzIters, workers);
    return std::pair{obs::MetricRegistry::global().counter_values(),
                     obs::MetricRegistry::global().gauge_values()};
  };
  const auto two = snapshot(2);
  const auto four = snapshot(4);
  const auto eight = snapshot(8);
  EXPECT_FALSE(two.first.empty());
  EXPECT_EQ(two.first, four.first);
  EXPECT_EQ(two.second, four.second);
  EXPECT_EQ(four.first, eight.first);
  EXPECT_EQ(four.second, eight.second);
}

TEST(ParallelDeterminism, SerialAndParallelCountersAgree) {
  // Serial updates the global registry in place; parallel folds per-task
  // shards. Integral counters (event counts) must agree exactly; fractional
  // ones (cycle/byte totals) may differ only by reassociation ulps.
  const auto snapshot = [](int workers) {
    obs::MetricRegistry::global().reset_values();
    (void)verify::run_fuzz(kFuzzSeed, kFuzzIters, workers);
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
