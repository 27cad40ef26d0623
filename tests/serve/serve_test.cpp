// GemmServer contract: degradation ladder, typed errors, deterministic
// deadlines, transient-fault retry, and the per-rung circuit breaker.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "baselines/reference.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"
#include "sim/deadline.hpp"
#include "util/rng.hpp"
#include "verify/invariants.hpp"

namespace kami {
namespace {

using serve::ErrorCode;
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

template <Scalar T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (static_cast<double>(num_traits<T>::to_acc(a.data()[i])) !=
        static_cast<double>(num_traits<T>::to_acc(b.data()[i])))
      return false;
  return true;
}

TEST(ServeLadder, ServesRequestedRungWhenFeasible) {
  obs::ScopedMetricsReset reset;
  GemmServer server;
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  const auto r = server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_FALSE(r.degraded);
  EXPECT_FALSE(r.from_reference);
  EXPECT_EQ(r.rung, 0);
  EXPECT_EQ(r.rung_label, "kami_1d");
  EXPECT_EQ(r.attempts, 1);
  EXPECT_GT(r.profile.latency, 0.0);
  EXPECT_TRUE(bits_equal(r.C, baselines::reference_gemm(A, B)));
  EXPECT_EQ(counter("serve.ok"), 1.0);
  EXPECT_EQ(counter("serve.served.kami_1d"), 1.0);
  EXPECT_EQ(counter("serve.degraded"), 0.0);
}

// The ISSUE's pinned ladder shape: 3D FP64 at order 128 exceeds GH200's
// register file at every spill ratio, 2D fits — the request must degrade one
// rung and report it through the result and the obs counters.
TEST(ServeLadder, DegradesInfeasibleThreeDToTwoD) {
  obs::ScopedMetricsReset reset;
  GemmServer server;
  const auto [A, B] = operands<double>(128, 128, 128);
  const auto r = server.serve<double>(Algo::ThreeD, sim::gh200(), A, B);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.from_reference);
  EXPECT_EQ(r.requested, Algo::ThreeD);
  EXPECT_EQ(r.served, Algo::TwoD);
  EXPECT_EQ(r.rung, 1);
  EXPECT_EQ(r.rung_label, "kami_2d");
  EXPECT_TRUE(bits_equal(r.C, baselines::reference_gemm(A, B)));
  EXPECT_EQ(counter("serve.served.kami_2d"), 1.0);
  EXPECT_EQ(counter("serve.degraded"), 1.0);
  EXPECT_EQ(counter("serve.served.kami_3d"), 0.0);
}

// 17^3 fp16 has no legal launch plan on any KAMI rung (17 is indivisible by
// every warp grid); the host reference must serve it bit-correctly.
TEST(ServeLadder, FallsBackToReferenceWhenEveryKamiRungIsInfeasible) {
  obs::ScopedMetricsReset reset;
  GemmServer server;
  const auto [A, B] = operands<fp16_t>(17, 17, 17);
  const auto r = server.serve<fp16_t>(Algo::ThreeD, sim::gh200(), A, B);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_TRUE(r.from_reference);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.rung_label, "reference");
  EXPECT_TRUE(bits_equal(r.C, baselines::reference_gemm(A, B)));
  EXPECT_EQ(counter("serve.served.reference"), 1.0);
}

// The reference rung runs the production host kernel (core::numeric_gemm),
// never the oracle it is checked against, and its C must equal that oracle
// bit for bit. 97x61x83 has no legal plan on any KAMI rung; at 384^3 a
// permanent clock fault keeps every KAMI rung from serving.
template <Scalar T>
void expect_reference_rung_matches_oracle(std::size_t m, std::size_t n, std::size_t k) {
  SCOPED_TRACE(std::string(precision_name(num_traits<T>::precision)) + " " +
               std::to_string(m) + "x" + std::to_string(n) + "x" + std::to_string(k));
  GemmServer server;
  const auto [A, B] = operands<T>(m, n, k, m + n + k);
  const auto r = server.serve<T>(Algo::ThreeD, sim::gh200(), A, B);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_TRUE(r.from_reference);
  EXPECT_EQ(r.rung_label, "reference");
  const Matrix<T> oracle = baselines::reference_gemm(A, B);
  ASSERT_TRUE(r.C.same_shape(oracle));
  EXPECT_EQ(std::memcmp(r.C.data(), oracle.data(), oracle.size() * sizeof(T)), 0);
}

TEST(ServeLadder, ReferenceRungRunsTheProductionKernel) {
  obs::ScopedMetricsReset reset;
  expect_reference_rung_matches_oracle<fp16_t>(97, 61, 83);
  expect_reference_rung_matches_oracle<bf16_t>(97, 61, 83);
  expect_reference_rung_matches_oracle<float>(97, 61, 83);
  expect_reference_rung_matches_oracle<double>(97, 61, 83);

  verify::FaultHooks fault;
  fault.warp_advance_skew = -1e9;
  fault.armed_runs = -1;
  const verify::ScopedFault guard(fault);
  expect_reference_rung_matches_oracle<double>(384, 384, 384);
  EXPECT_EQ(counter("serve.served.reference"), 5.0);
}

TEST(ServeDeadline, TypedTerminalAndDeterministic) {
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  GemmOptions opt;
  opt.deadline_cycles = 50.0;  // far below any 64^3 kernel latency

  GemmServer first;
  const auto a = first.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B, opt);
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.code, ErrorCode::DeadlineExceeded);
  EXPECT_NE(a.message.find("deadline"), std::string::npos) << a.message;
  // Terminal: no degradation attempts after the budget is blown.
  EXPECT_EQ(a.attempts, 1);

  // Same request, fresh server: byte-identical abort.
  GemmServer second;
  const auto b = second.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B, opt);
  EXPECT_EQ(b.code, ErrorCode::DeadlineExceeded);
  EXPECT_EQ(a.message, b.message);
}

TEST(ServeDeadline, GenerousBudgetDoesNotTrip) {
  GemmServer server;
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  GemmOptions opt;
  opt.deadline_cycles = 1e9;
  const auto r = server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B, opt);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_LT(r.profile.latency, 1e9);
}

TEST(ServeDeadline, NumericsOnlyNeverTrips) {
  GemmServer server;
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  GemmOptions opt;
  opt.mode = sim::ExecMode::NumericsOnly;
  opt.deadline_cycles = 1.0;  // no clock ever advances in NumericsOnly
  const auto r = server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B, opt);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_TRUE(bits_equal(r.C, baselines::reference_gemm(A, B)));
}

TEST(ServeRetry, TransientFaultRecoversOnSameRung) {
  obs::ScopedMetricsReset reset;
  GemmServer server;
  const auto [A, B] = operands<fp16_t>(64, 64, 64);

  verify::FaultHooks fault;
  fault.warp_advance_skew = -1e9;  // rewinds warp clocks: InvariantViolation
  fault.armed_runs = 1;            // clears after one failing run
  const verify::ScopedFault guard(fault);

  const auto r = server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.rung_label, "kami_1d");
  EXPECT_EQ(r.attempts, 2);  // one faulted attempt + one clean retry
  EXPECT_EQ(counter("serve.retries"), 1.0);
  EXPECT_TRUE(bits_equal(r.C, baselines::reference_gemm(A, B)));
}

TEST(ServeRetry, PermanentFaultExhaustsRetriesAndServesFromReference) {
  obs::ScopedMetricsReset reset;
  GemmServer server;
  const auto [A, B] = operands<fp16_t>(64, 64, 64);

  verify::FaultHooks fault;
  fault.warp_advance_skew = -1e9;
  fault.armed_runs = -1;  // never clears; only the host reference is immune
  const verify::ScopedFault guard(fault);

  const auto r = server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_TRUE(r.from_reference);
  EXPECT_EQ(r.rung_label, "reference");
  EXPECT_EQ(r.attempts, GemmServer::kMaxAttemptsPerRung + 1);
  EXPECT_TRUE(bits_equal(r.C, baselines::reference_gemm(A, B)));
}

TEST(ServeRetry, InjectedAllocationFailureDegradesOneRung) {
  GemmServer server;
  const auto [A, B] = operands<fp16_t>(64, 64, 64);

  verify::FaultHooks fault;
  fault.alloc_fail_countdown = 0;  // the very next register allocation fails
  const verify::ScopedFault guard(fault);

  const auto r = server.serve<fp16_t>(Algo::ThreeD, sim::gh200(), A, B);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.served, Algo::TwoD);  // hook is one-shot: the next rung is clean
  EXPECT_TRUE(bits_equal(r.C, baselines::reference_gemm(A, B)));
}

/// Permanently failing KAMI rungs: every attempt trips an invariant, and only
/// the host reference is immune.
verify::FaultHooks permanent_fault() {
  verify::FaultHooks fault;
  fault.warp_advance_skew = -1e9;
  fault.armed_runs = -1;
  return fault;
}

TEST(ServeBreaker, TripsShortCircuitsAndRecoversThroughHalfOpen) {
  obs::ScopedMetricsReset reset;
  GemmServer server;
  const auto& dev = sim::gh200();
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  const auto rung_state = [&] {
    return server.breaker_state(dev.name, Algo::OneD, Precision::FP16, 64, 64, 64);
  };
  ASSERT_EQ(rung_state(), serve::BreakerState::Closed);

  {
    const verify::ScopedFault guard(permanent_fault());
    for (int i = 0; i < GemmServer::kBreakerFailureThreshold; ++i) {
      EXPECT_EQ(rung_state(), serve::BreakerState::Closed) << "request " << i;
      const auto r = server.serve<fp16_t>(Algo::OneD, dev, A, B);
      ASSERT_TRUE(r.ok()) << r.message;
      EXPECT_TRUE(r.from_reference);  // rung failed permanently this request
    }
  }
  EXPECT_EQ(rung_state(), serve::BreakerState::Open);
  EXPECT_EQ(counter("serve.breaker.trips"), 1.0);

  // Fault cleared, but the open breaker short-circuits the rung for the
  // whole cooldown — served by reference without touching the simulator.
  for (int i = 0; i < GemmServer::kBreakerCooldownRequests; ++i) {
    const auto blocked = server.serve<fp16_t>(Algo::OneD, dev, A, B);
    ASSERT_TRUE(blocked.ok()) << blocked.message;
    EXPECT_TRUE(blocked.from_reference);
    EXPECT_EQ(blocked.attempts, 1);  // the reference rung's only
  }
  EXPECT_EQ(counter("serve.breaker.short_circuits"),
            static_cast<double>(GemmServer::kBreakerCooldownRequests));
  EXPECT_EQ(rung_state(), serve::BreakerState::Open);

  // Cooldown expired: the next request is the half-open probe, it succeeds,
  // and the breaker closes again.
  const auto probe = server.serve<fp16_t>(Algo::OneD, dev, A, B);
  ASSERT_TRUE(probe.ok()) << probe.message;
  EXPECT_FALSE(probe.degraded);
  EXPECT_EQ(probe.rung_label, "kami_1d");
  EXPECT_EQ(rung_state(), serve::BreakerState::Closed);
  EXPECT_EQ(counter("serve.breaker.half_open_probes"), 1.0);
  EXPECT_EQ(counter("serve.breaker.closes"), 1.0);
}

TEST(ServeBreaker, FailedProbeReopens) {
  obs::ScopedMetricsReset reset;
  GemmServer server;
  const auto& dev = sim::gh200();
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  const verify::ScopedFault guard(permanent_fault());

  for (int i = 0; i < GemmServer::kBreakerFailureThreshold; ++i)
    (void)server.serve<fp16_t>(Algo::OneD, dev, A, B);  // trips the breaker
  for (int i = 0; i < GemmServer::kBreakerCooldownRequests; ++i)
    (void)server.serve<fp16_t>(Algo::OneD, dev, A, B);  // cooldown short-circuits
  const auto probe = server.serve<fp16_t>(Algo::OneD, dev, A, B);  // runs, fails
  ASSERT_TRUE(probe.ok()) << probe.message;
  EXPECT_TRUE(probe.from_reference);
  EXPECT_EQ(probe.attempts, GemmServer::kMaxAttemptsPerRung + 1);
  EXPECT_EQ(server.breaker_state(dev.name, Algo::OneD, Precision::FP16, 64, 64, 64),
            serve::BreakerState::Open);
  EXPECT_EQ(counter("serve.breaker.half_open_probes"), 1.0);
  EXPECT_EQ(counter("serve.breaker.trips"), 2.0);  // the trip and the reopen
  EXPECT_EQ(counter("serve.breaker.closes"), 0.0);
}

TEST(ServeValidation, DegenerateShapesAreWellDefinedEmptyResults) {
  obs::ScopedMetricsReset reset;
  GemmServer server;
  const auto& dev = sim::gh200();
  const struct { std::size_t m, n, k; } shapes[] = {{0, 16, 16}, {16, 0, 16}, {16, 16, 0}};
  for (const auto& s : shapes) {
    const auto [A, B] = operands<fp16_t>(s.m, s.n, s.k);
    const auto r = server.serve<fp16_t>(Algo::OneD, dev, A, B);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_TRUE(r.degenerate);
    EXPECT_EQ(r.C.rows(), s.m);
    EXPECT_EQ(r.C.cols(), s.n);
    for (std::size_t i = 0; i < r.C.size(); ++i)
      EXPECT_EQ(static_cast<double>(num_traits<fp16_t>::to_acc(r.C.data()[i])), 0.0);
  }
  EXPECT_EQ(counter("serve.served.degenerate"), 3.0);
}

TEST(ServeValidation, MismatchedInnerDimensionsAreTyped) {
  GemmServer server;
  const Matrix<fp16_t> A(16, 8), B(16, 16);
  const auto r = server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B);
  EXPECT_EQ(r.code, ErrorCode::InvalidRequest);
  EXPECT_NE(r.message.find("16x8"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("16x16"), std::string::npos) << r.message;
}

TEST(ServeValidation, UnknownAlgorithmIsTypedAndNamesTheValue) {
  GemmServer server;
  const auto [A, B] = operands<fp16_t>(16, 16, 16);
  const auto r =
      server.serve<fp16_t>(static_cast<Algo>(42), sim::gh200(), A, B);
  EXPECT_EQ(r.code, ErrorCode::InvalidRequest);
  EXPECT_NE(r.message.find("42"), std::string::npos) << r.message;

  // Satellite: the raw API's rejection must name the value too.
  try {
    (void)gemm(static_cast<Algo>(42), sim::gh200(), A, B);
    FAIL() << "unknown algorithm must throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("42"), std::string::npos) << e.what();
  }
}

TEST(ServeErrors, ClassifyExceptionCoversTheTaxonomy) {
  using serve::classify_exception;
  EXPECT_EQ(classify_exception(nullptr), ErrorCode::Ok);
  EXPECT_EQ(classify_exception(
                std::make_exception_ptr(PreconditionError("bad config"))),
            ErrorCode::InfeasiblePlan);
  EXPECT_EQ(classify_exception(
                std::make_exception_ptr(sim::RegisterOverflow("regs"))),
            ErrorCode::ResourceExhausted);
  EXPECT_EQ(classify_exception(
                std::make_exception_ptr(sim::DeadlineExceeded("late"))),
            ErrorCode::DeadlineExceeded);
  EXPECT_EQ(classify_exception(std::make_exception_ptr(std::bad_alloc{})),
            ErrorCode::ResourceExhausted);
  EXPECT_EQ(classify_exception(std::make_exception_ptr(std::runtime_error("?"))),
            ErrorCode::InternalInvariant);

  // An InvariantViolation is transient only while a fault source is armed.
  EXPECT_EQ(classify_exception(
                std::make_exception_ptr(verify::InvariantViolation("trip"))),
            ErrorCode::InternalInvariant);
  verify::FaultHooks fault;
  fault.warp_advance_skew = -1.0;
  fault.armed_runs = 1;
  const verify::ScopedFault guard(fault);
  EXPECT_EQ(classify_exception(
                std::make_exception_ptr(verify::InvariantViolation("trip"))),
            ErrorCode::TransientFault);
}

TEST(ServeErrors, CodeAndBreakerNamesAreStable) {
  EXPECT_STREQ(serve::error_code_name(ErrorCode::Ok), "ok");
  EXPECT_STREQ(serve::error_code_name(ErrorCode::InvalidRequest), "invalid_request");
  EXPECT_STREQ(serve::error_code_name(ErrorCode::InfeasiblePlan), "infeasible_plan");
  EXPECT_STREQ(serve::error_code_name(ErrorCode::ResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(serve::error_code_name(ErrorCode::DeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(serve::error_code_name(ErrorCode::TransientFault), "transient_fault");
  EXPECT_STREQ(serve::error_code_name(ErrorCode::InternalInvariant),
               "internal_invariant");
  EXPECT_STREQ(serve::breaker_state_name(serve::BreakerState::Closed), "closed");
  EXPECT_STREQ(serve::breaker_state_name(serve::BreakerState::Open), "open");
  EXPECT_STREQ(serve::breaker_state_name(serve::BreakerState::HalfOpen), "half_open");
}

}  // namespace
}  // namespace kami
