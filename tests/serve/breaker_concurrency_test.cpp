// Circuit breaker state transitions under concurrent submit_async on a
// one-device FleetServer whose four workers race the shard's GemmServer: a
// burst of failing requests trips a rung exactly once, the half-open window
// admits concurrent probes without losing the recovery, and a failed probe
// reopens. The breaker runs at its constants (GemmServer::
// kBreakerFailureThreshold, kBreakerCooldownRequests), and every request the
// KAMI-1D rung does not serve — failed or short-circuited — is served by the
// reference rung, so the rung that served tells the outcomes apart. This
// suite runs under ThreadSanitizer in CI — the assertions below are
// deliberately restricted to invariants that hold for every interleaving of
// worker threads (breaker admission is mutex-serialized, so short-circuit
// and probe *counts* are deterministic even when completion order is not).
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
using serve::FleetConfig;
using serve::FleetDeviceConfig;
using serve::FleetResult;
using serve::FleetServer;
using serve::GemmServer;

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

constexpr int kThreshold = GemmServer::kBreakerFailureThreshold;
constexpr int kCooldown = GemmServer::kBreakerCooldownRequests;

/// A one-device GH200 fleet drained by `workers` threads.
FleetConfig one_gh200(int workers) {
  FleetDeviceConfig dev;
  dev.spec = sim::gh200();
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

/// Trip the rung with kThreshold synchronous failing requests; each one is
/// served by the reference rung.
void trip(FleetServer& fleet, const Matrix<fp16_t>& A, const Matrix<fp16_t>& B) {
  const verify::ScopedFault guard(permanent_fault());
  for (int i = 0; i < kThreshold; ++i) {
    const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B);
    ASSERT_TRUE(r.ok()) << r.result.message;
    ASSERT_TRUE(r.result.from_reference);
  }
}

TEST(BreakerConcurrency, ConcurrentFailuresTripTheRungExactlyOnce) {
  obs::ScopedMetricsReset reset;
  // At least kThreshold requests run the rung before it trips; the rest of
  // the burst fits in one cooldown, so no probe fires during it.
  constexpr std::size_t kBurst = kThreshold + kCooldown;

  std::vector<std::future<FleetResult<fp16_t>>> futures;
  {
    FleetServer fleet(one_gh200(/*workers=*/4));
    const auto [A, B] = operands<fp16_t>(32, 32, 32);
    {
      // Hooks snapshot at submission: every queued request carries the fault.
      const verify::ScopedFault guard(permanent_fault());
      for (std::size_t i = 0; i < kBurst; ++i)
        futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
    }
    for (auto& f : futures) {
      const FleetResult<fp16_t> r = f.get();
      // Every request leaves the faulted rung — by running it or by
      // short-circuit — and is served by the reference rung.
      ASSERT_TRUE(r.ok()) << r.result.message;
      EXPECT_TRUE(r.result.from_reference);
    }
    EXPECT_EQ(rung_state(fleet), BreakerState::Open);
  }
  // However the 4 workers interleave, the Closed -> Open transition happens
  // exactly once: later failures land on an already-open breaker, and no
  // request outlasted the cooldown to probe and re-trip it.
  EXPECT_EQ(counter("serve.breaker.trips"), 1.0);
  EXPECT_EQ(counter("serve.breaker.half_open_probes"), 0.0);
  // With 4 workers at most kThreshold + 3 in-flight requests ever run the
  // rung; the rest of the burst must have been short-circuited.
  EXPECT_GE(counter("serve.breaker.short_circuits"),
            static_cast<double>(kBurst - kThreshold - 3));
  EXPECT_EQ(counter("serve.served.reference"), static_cast<double>(kBurst));
  EXPECT_EQ(counter("serve.served.kami_1d"), 0.0);
}

TEST(BreakerConcurrency, HalfOpenWindowAdmitsConcurrentProbesAndClosesOnce) {
  obs::ScopedMetricsReset reset;
  constexpr std::size_t kBurst = 2 * kCooldown;

  FleetServer fleet(one_gh200(/*workers=*/4));
  const auto [A, B] = operands<fp16_t>(32, 32, 32);
  trip(fleet, A, B);
  ASSERT_EQ(rung_state(fleet), BreakerState::Open);
  ASSERT_EQ(counter("serve.breaker.trips"), 1.0);

  // Fault cleared; a concurrent burst races the half-open transition. The
  // admission gate is mutex-serialized, so exactly kCooldown requests
  // short-circuit to the reference rung, the next one flips the breaker
  // half-open, and every request admitted during the half-open window (the
  // race this test pins) is served by KAMI-1D — the first success closes
  // the breaker, exactly once.
  std::vector<std::future<FleetResult<fp16_t>>> futures;
  for (std::size_t i = 0; i < kBurst; ++i)
    futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
  std::size_t on_rung = 0, short_circuited = 0;
  for (auto& f : futures) {
    const FleetResult<fp16_t> r = f.get();
    ASSERT_TRUE(r.ok()) << r.result.message;
    if (r.result.from_reference) {
      ++short_circuited;
    } else {
      ++on_rung;
      EXPECT_EQ(r.result.rung_label, "kami_1d");
    }
  }
  EXPECT_EQ(short_circuited, static_cast<std::size_t>(kCooldown));
  EXPECT_EQ(on_rung, kBurst - kCooldown);
  EXPECT_EQ(rung_state(fleet), BreakerState::Closed);
  EXPECT_EQ(counter("serve.breaker.short_circuits"), static_cast<double>(kCooldown));
  EXPECT_EQ(counter("serve.breaker.half_open_probes"), 1.0);
  EXPECT_EQ(counter("serve.breaker.closes"), 1.0);
  EXPECT_EQ(counter("serve.breaker.trips"), 1.0);  // never re-tripped
}

TEST(BreakerConcurrency, FailedProbeReopensUnderConcurrentLoad) {
  obs::ScopedMetricsReset reset;
  // Long enough to outlast the cooldown at least once.
  constexpr std::size_t kBurst = 2 * (kCooldown + 1);

  std::vector<std::future<FleetResult<fp16_t>>> futures;
  {
    FleetServer fleet(one_gh200(/*workers=*/4));
    const auto [A, B] = operands<fp16_t>(32, 32, 32);
    trip(fleet, A, B);
    ASSERT_EQ(rung_state(fleet), BreakerState::Open);

    // Fault still armed: every probe the concurrent burst earns fails and
    // reopens the breaker; nothing can close it, and the reference rung
    // serves every request.
    const verify::ScopedFault guard(permanent_fault());
    for (std::size_t i = 0; i < kBurst; ++i)
      futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
    for (auto& f : futures) {
      const FleetResult<fp16_t> r = f.get();
      ASSERT_TRUE(r.ok()) << r.result.message;
      EXPECT_TRUE(r.result.from_reference);
    }
    EXPECT_EQ(rung_state(fleet), BreakerState::Open);
  }
  EXPECT_GE(counter("serve.breaker.half_open_probes"), 1.0);
  EXPECT_GE(counter("serve.breaker.trips"), 2.0);  // initial trip + >= 1 reopen
  EXPECT_EQ(counter("serve.breaker.closes"), 0.0);
  EXPECT_EQ(counter("serve.served.kami_1d"), 0.0);
}

}  // namespace
}  // namespace kami
