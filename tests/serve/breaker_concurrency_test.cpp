// Circuit breaker state transitions under concurrent submit_async on a
// one-device FleetServer whose four workers race the shard's GemmServer: a
// burst of failing requests trips a rung exactly once, the half-open window
// admits concurrent probes without losing the recovery, and a failed probe
// reopens. This suite runs under ThreadSanitizer in CI — the assertions
// below are deliberately restricted to invariants that hold for every
// interleaving of worker threads (breaker admission is mutex-serialized, so
// short-circuit and probe *counts* are deterministic even when completion
// order is not).
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/fleet.hpp"
#include "util/rng.hpp"
#include "verify/invariants.hpp"

namespace kami {
namespace {

using serve::BreakerState;
using serve::ErrorCode;
using serve::FleetConfig;
using serve::FleetDeviceConfig;
using serve::FleetResult;
using serve::FleetServer;

double counter(const char* name) {
  return obs::MetricRegistry::global().counter(name).value();
}

template <Scalar T>
std::pair<Matrix<T>, Matrix<T>> operands(std::size_t m, std::size_t n, std::size_t k,
                                         std::uint64_t seed = 1) {
  Rng rng(seed);
  Matrix<T> A = random_matrix<T>(m, k, rng);
  Matrix<T> B = random_matrix<T>(k, n, rng);
  return {std::move(A), std::move(B)};
}

/// A one-device GH200 fleet drained by `workers` threads whose shard serves
/// a single rung: degradation and reference fallback off, so a rung failure
/// is a typed error instead of a lower rung masking the breaker.
FleetConfig bare_rung(int workers, int failure_threshold, int cooldown_requests) {
  FleetDeviceConfig dev;
  dev.spec = sim::gh200();
  dev.serve.allow_degradation = false;
  dev.serve.allow_reference_fallback = false;
  dev.serve.breaker_failure_threshold = failure_threshold;
  dev.serve.breaker_cooldown_requests = cooldown_requests;
  FleetConfig cfg;
  cfg.devices = {dev};
  cfg.async_workers_per_device = workers;
  return cfg;
}

BreakerState rung_state(FleetServer& fleet) {
  return fleet.shard_server(0).breaker_state(sim::gh200().name, Algo::OneD,
                                             Precision::FP16, 32, 32, 32);
}

verify::FaultHooks permanent_fault() {
  verify::FaultHooks hooks;
  hooks.warp_advance_skew = -1e9;
  hooks.armed_runs = -1;  // every attempt fails
  return hooks;
}

TEST(BreakerConcurrency, ConcurrentFailuresTripTheRungExactlyOnce) {
  obs::ScopedMetricsReset reset;
  constexpr std::size_t kBurst = 12;

  std::vector<std::future<FleetResult<fp16_t>>> futures;
  {
    // Threshold 3, and a cooldown long enough that no probe fires during
    // the burst.
    FleetServer fleet(bare_rung(/*workers=*/4, 3, 1000));
    const auto [A, B] = operands<fp16_t>(32, 32, 32);
    {
      // Hooks snapshot at submission: every queued request carries the fault.
      const verify::ScopedFault guard(permanent_fault());
      for (std::size_t i = 0; i < kBurst; ++i)
        futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
    }
    for (auto& f : futures) {
      const FleetResult<fp16_t> r = f.get();
      // Every request fails typed — by running the rung or by short-circuit,
      // which reports the stored failure code, never a different one.
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.result.code, ErrorCode::TransientFault) << r.result.message;
      EXPECT_FALSE(r.result.message.empty());
    }
    EXPECT_EQ(rung_state(fleet), BreakerState::Open);
  }
  // However the 4 workers interleave, the Closed -> Open transition happens
  // exactly once: later failures land on an already-open breaker, and the
  // long cooldown means no probe could have closed and re-tripped it.
  EXPECT_EQ(counter("serve.breaker.trips"), 1.0);
  EXPECT_EQ(counter("serve.breaker.half_open_probes"), 0.0);
  // With 4 workers at most threshold + in-flight requests ever run the rung;
  // the rest of the burst must have been short-circuited.
  EXPECT_GE(counter("serve.breaker.short_circuits"), 1.0);
  EXPECT_EQ(counter("serve.errors"), static_cast<double>(kBurst));
}

TEST(BreakerConcurrency, HalfOpenWindowAdmitsConcurrentProbesAndClosesOnce) {
  obs::ScopedMetricsReset reset;
  constexpr std::size_t kBurst = 16;

  FleetServer fleet(bare_rung(/*workers=*/4, 1, 4));
  const auto [A, B] = operands<fp16_t>(32, 32, 32);
  {
    const verify::ScopedFault guard(permanent_fault());
    const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B);
    ASSERT_EQ(r.result.code, ErrorCode::TransientFault) << r.result.message;
  }
  ASSERT_EQ(rung_state(fleet), BreakerState::Open);
  ASSERT_EQ(counter("serve.breaker.trips"), 1.0);

  // Fault cleared; a concurrent burst races the half-open transition. The
  // admission gate is mutex-serialized, so exactly `cooldown` requests
  // short-circuit, the next one flips the breaker half-open, and every
  // request admitted during the half-open window (the race this test pins)
  // serves — the first success closes the breaker, exactly once.
  std::vector<std::future<FleetResult<fp16_t>>> futures;
  for (std::size_t i = 0; i < kBurst; ++i)
    futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
  std::size_t ok = 0, short_circuited = 0;
  for (auto& f : futures) {
    const FleetResult<fp16_t> r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      ++short_circuited;
      // The stored code, and the breaker's short-circuit message.
      EXPECT_EQ(r.result.code, ErrorCode::TransientFault) << r.result.message;
      EXPECT_NE(r.result.message.find("short-circuited"), std::string::npos)
          << r.result.message;
    }
  }
  EXPECT_EQ(short_circuited, 4u);
  EXPECT_EQ(ok, kBurst - 4u);
  EXPECT_EQ(rung_state(fleet), BreakerState::Closed);
  EXPECT_EQ(counter("serve.breaker.short_circuits"), 4.0);
  EXPECT_EQ(counter("serve.breaker.half_open_probes"), 1.0);
  EXPECT_EQ(counter("serve.breaker.closes"), 1.0);
  EXPECT_EQ(counter("serve.breaker.trips"), 1.0);  // never re-tripped
}

TEST(BreakerConcurrency, FailedProbeReopensUnderConcurrentLoad) {
  obs::ScopedMetricsReset reset;
  constexpr std::size_t kBurst = 8;

  std::vector<std::future<FleetResult<fp16_t>>> futures;
  {
    FleetServer fleet(bare_rung(/*workers=*/4, 1, 2));
    const auto [A, B] = operands<fp16_t>(32, 32, 32);
    const verify::ScopedFault guard(permanent_fault());
    const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B);
    ASSERT_EQ(r.result.code, ErrorCode::TransientFault) << r.result.message;

    // Fault still armed: every probe the concurrent burst earns fails and
    // reopens the breaker; nothing can close it.
    for (std::size_t i = 0; i < kBurst; ++i)
      futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
    for (auto& f : futures) {
      const FleetResult<fp16_t> r2 = f.get();
      EXPECT_FALSE(r2.ok());
      EXPECT_EQ(r2.result.code, ErrorCode::TransientFault) << r2.result.message;
    }
    EXPECT_EQ(rung_state(fleet), BreakerState::Open);
  }
  EXPECT_GE(counter("serve.breaker.trips"), 2.0);  // initial trip + >= 1 reopen
  EXPECT_EQ(counter("serve.breaker.closes"), 0.0);
  EXPECT_EQ(counter("serve.ok"), 0.0);
}

}  // namespace
}  // namespace kami
