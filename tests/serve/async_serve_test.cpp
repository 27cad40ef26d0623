// Async serving on a one-device FleetServer — the single-server async path.
// Results bit-equal the synchronous path, and a threaded queue adds no
// logical cycles (its host wait lands in host.queue_wait_ns); the
// submitting thread's FaultHooks are replayed in the worker; a full queue
// refuses with a typed ResourceExhausted future (never blocking, never
// touching breakers or retries) that still lands in SLO accounting; and the
// destructor drains every accepted request, so futures are always
// eventually ready.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <iterator>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/fleet.hpp"
#include "serve/slo.hpp"
#include "util/rng.hpp"
#include "verify/invariants.hpp"

namespace kami {
namespace {

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

template <Scalar T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// A one-device GH200 fleet: `workers` threads drain its queue (0 = manual
/// drain).
FleetConfig one_device(int workers, std::size_t queue_depth = 64) {
  FleetConfig cfg;
  FleetDeviceConfig dev;
  dev.spec = sim::gh200();
  dev.queue_depth = queue_depth;
  cfg.devices = {dev};
  cfg.async_workers_per_device = workers;
  return cfg;
}

TEST(AsyncServe, ResultsBitEqualSynchronousServe) {
  FleetServer sync_fleet(one_device(0));
  FleetServer async_fleet(one_device(1));
  const std::size_t shapes[][3] = {{32, 32, 32}, {64, 64, 64}, {48, 16, 64}};
  std::vector<std::future<FleetResult<fp16_t>>> futures;
  std::vector<FleetResult<fp16_t>> want;
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    const auto [A, B] =
        operands<fp16_t>(shapes[i][0], shapes[i][1], shapes[i][2], 100 + i);
    want.push_back(sync_fleet.serve<fp16_t>(Algo::OneD, A, B));
    futures.push_back(async_fleet.submit_async<fp16_t>(Algo::OneD, A, B));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const FleetResult<fp16_t> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.result.message;
    EXPECT_EQ(got.result.code, want[i].result.code);
    EXPECT_EQ(got.result.rung_label, want[i].result.rung_label);
    EXPECT_EQ(got.result.attempts, want[i].result.attempts);
    EXPECT_EQ(got.result.warps, want[i].result.warps);
    EXPECT_TRUE(bits_equal(got.result.C, want[i].result.C)) << "entry " << i;
  }
}

// Logical cycles never read a host clock: however long a request waits in a
// threaded queue, its end-to-end cycles are exactly what a synchronous
// serve reports, and the wait itself is host time in host.queue_wait_ns.
TEST(AsyncServe, ThreadedQueueWaitAddsNoLogicalCycles) {
  obs::ScopedMetricsReset reset;
  FleetServer sync_fleet(one_device(0));
  FleetServer async_fleet(one_device(2));
  constexpr std::size_t kRequests = 6;
  std::vector<std::future<FleetResult<fp16_t>>> futures;
  std::vector<double> want;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto [A, B] = operands<fp16_t>(64, 32, 48, 200 + i);
    want.push_back(sync_fleet.serve<fp16_t>(Algo::OneD, A, B).end_to_end_cycles);
    futures.push_back(async_fleet.submit_async<fp16_t>(Algo::OneD, A, B));
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    const FleetResult<fp16_t> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.result.message;
    EXPECT_GT(want[i], 0.0);
    EXPECT_EQ(got.end_to_end_cycles, want[i]) << "request " << i;
    EXPECT_EQ(got.result.end_to_end_cycles, want[i]) << "request " << i;
  }
  const obs::Histogram* wait =
      obs::MetricRegistry::global().find_histogram("host.queue_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), kRequests);
}

TEST(AsyncServe, SubmitterFaultHooksReplayInWorker) {
  FleetServer fleet(one_device(1));
  const auto [A, B] = operands<fp16_t>(32, 32, 32);

  std::future<FleetResult<fp16_t>> fut;
  {
    // Transient fault armed only for the duration of the submit call. The
    // worker must still see it (snapshot semantics), fail once, retry, and
    // serve on the second attempt.
    verify::FaultHooks hooks;
    hooks.warp_advance_skew = -1e9;
    hooks.armed_runs = 1;
    const verify::ScopedFault fault(hooks);
    fut = fleet.submit_async<fp16_t>(Algo::OneD, A, B);
  }
  const FleetResult<fp16_t> r = fut.get();
  ASSERT_TRUE(r.ok()) << r.result.message;
  EXPECT_EQ(r.result.attempts, 2);
  EXPECT_EQ(r.result.rung_label, "kami_1d");
  // The submitting thread's own hooks are untouched afterwards.
  EXPECT_EQ(verify::fault_hooks().warp_advance_skew, 0.0);
}

TEST(AsyncServe, FullQueueRefusesTypedWithoutTouchingBreakers) {
  obs::ScopedMetricsReset reset;
  constexpr std::size_t kBurst = 24;
  // Manual drain: nothing claims the depth-2 queue until drain(), so the
  // burst overflows it deterministically.
  FleetServer fleet(one_device(0, /*queue_depth=*/2));
  const auto [A, B] = operands<fp16_t>(32, 32, 32);
  std::vector<std::future<FleetResult<fp16_t>>> futures;
  for (std::size_t i = 0; i < kBurst; ++i)
    futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
  fleet.drain();

  std::size_t refused = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const FleetResult<fp16_t> r = f.get();
    if (r.result.code == ErrorCode::ResourceExhausted) {
      ++refused;
      EXPECT_NE(r.result.message.find("every eligible fleet queue is full"),
                std::string::npos)
          << r.result.message;
      EXPECT_EQ(r.result.attempts, 0);  // refused before any rung ran
      EXPECT_EQ(r.device_index, -1);
    } else {
      ASSERT_TRUE(r.ok()) << r.result.message;
    }
  }
  EXPECT_EQ(refused, kBurst - 2);
  // Overload never counts against the resilience machinery: the rung's
  // breaker stays closed and no refusal burned a retry.
  EXPECT_EQ(fleet.shard_server(0).breaker_state(sim::gh200().name, Algo::OneD,
                                                Precision::FP16, 32, 32, 32),
            serve::BreakerState::Closed);
  EXPECT_EQ(counter("serve.retries"), 0.0);
  EXPECT_EQ(counter("fleet.async.submitted"), static_cast<double>(kBurst));
  EXPECT_EQ(counter("fleet.async.accepted"), 2.0);
  EXPECT_EQ(counter("fleet.async.rejected"), static_cast<double>(refused));
}

// Queue-full refusals must reach the attached SLO tracker: a rejected
// submission is one request of its shape class, with an error coded
// resource_exhausted and no latency observation.
TEST(AsyncServe, QueueRefusalsLandInSloAccounting) {
  FleetConfig cfg = one_device(0, /*queue_depth=*/2);
  const auto slo = std::make_shared<serve::SloTracker>();
  cfg.slo = slo;

  constexpr std::size_t kBurst = 24;
  std::size_t refused = 0;
  {
    FleetServer fleet(std::move(cfg));
    const auto [A, B] = operands<fp16_t>(32, 32, 32);
    std::vector<std::future<FleetResult<fp16_t>>> futures;
    for (std::size_t i = 0; i < kBurst; ++i)
      futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
    fleet.drain();
    for (auto& f : futures)
      if (f.get().result.code == ErrorCode::ResourceExhausted) ++refused;
  }
  ASSERT_GT(refused, 0u) << "burst never overflowed the depth-2 queue";

  EXPECT_EQ(slo->total_requests(), kBurst);
  const obs::Json doc = slo->to_json();
  const obs::Json& cls = doc.at("classes").at(0);
  EXPECT_EQ(cls.at("class").as_string(), "tiny");
  EXPECT_EQ(cls.at("requests").as_number(), static_cast<double>(kBurst));
  EXPECT_EQ(cls.at("by_code").at("resource_exhausted").as_number(),
            static_cast<double>(refused));
  EXPECT_EQ(cls.at("latency_cycles").at("count").as_number(),
            static_cast<double>(kBurst - refused));
}

TEST(AsyncServe, DestructorDrainsEveryAcceptedRequest) {
  std::vector<std::future<FleetResult<fp16_t>>> futures;
  {
    FleetServer fleet(one_device(2));
    for (std::uint64_t s = 0; s < 8; ++s) {
      const auto [A, B] = operands<fp16_t>(32, 32, 32, s + 1);
      futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, A, B));
    }
  }  // ~FleetServer joins the workers and drains anything still queued
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const FleetResult<fp16_t> r = f.get();
    EXPECT_TRUE(r.ok() || r.result.code == ErrorCode::ResourceExhausted)
        << r.result.message;
  }
}

TEST(AsyncServe, ErrorsArriveTypedNotAsExceptions) {
  FleetServer fleet(one_device(1));
  // Inner dimensions disagree: must come back as a typed InvalidRequest
  // through the future, not an exception.
  Matrix<fp16_t> A(32, 16), B(32, 32);
  auto fut = fleet.submit_async<fp16_t>(Algo::OneD, std::move(A), std::move(B));
  const FleetResult<fp16_t> r = fut.get();
  EXPECT_EQ(r.result.code, ErrorCode::InvalidRequest);
  EXPECT_FALSE(r.result.message.empty());
}

}  // namespace
}  // namespace kami
