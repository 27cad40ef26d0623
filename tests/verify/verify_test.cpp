// The verify subsystem's own tests: point serialization round-trips, the
// curated smoke suite passes, fuzzing is deterministic (so `kami_verify
// repro <seed>` really replays a failure), and injected cycle-accounting
// faults are caught by the invariant layer — the acceptance test that the
// checks fire, not just compile.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/kami.hpp"
#include "model/predictor.hpp"
#include "verify/differential.hpp"
#include "verify/invariants.hpp"
#include "verify/model_check.hpp"

namespace kami::verify {
namespace {

TEST(CheckPointSpec, RoundTripsThroughString) {
  for (const CheckPoint& p : smoke_points()) {
    const std::string spec = to_string(p);
    EXPECT_EQ(to_string(point_from_string(spec)), spec);
  }
  for (std::uint64_t seed : {1ull, 7ull, 99ull, 123456789ull}) {
    const CheckPoint p = random_point(seed);
    const std::string spec = to_string(p);
    EXPECT_EQ(to_string(point_from_string(spec)), spec);
  }
}

TEST(CheckPointSpec, EncodesDeviceNameSpaces) {
  CheckPoint p;
  p.device = "RTX 5090";
  const std::string spec = to_string(p);
  EXPECT_EQ(spec.find(' '), spec.find(" prec="));  // no space inside the name
  EXPECT_EQ(point_from_string(spec).device, "RTX 5090");
}

TEST(CheckPointSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)point_from_string("device=GH200 bogus_key=1"),
               PreconditionError);
  EXPECT_THROW((void)point_from_string("device=GH200 m"), PreconditionError);
}

TEST(Differential, SmokeSuitePasses) {
  for (const CheckPoint& p : smoke_points()) {
    const CheckResult r = check_point(p);
    EXPECT_TRUE(r.ok) << to_string(p) << ": " << r.detail;
  }
}

TEST(Differential, UnsupportedPrecisionIsASkipNotAFailure) {
  CheckPoint p;
  p.device = "RTX 5090";  // no FP64 tensor path
  p.precision = Precision::FP64;
  const CheckResult r = check_point(p);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.skipped);
}

TEST(Differential, InfeasiblePointIsASkipNotAFailure) {
  CheckPoint p;
  p.algo = core::Algo::ThreeD;
  p.options.warps = 27;  // 3x3x3 grid cannot divide 64^3
  const CheckResult r = check_point(p);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.skipped) << r.detail;
}

TEST(Fuzz, SameSeedSameOutcome) {
  const FuzzReport a = run_fuzz(5, 8);
  const FuzzReport b = run_fuzz(5, 8);
  EXPECT_EQ(a.ran, b.ran);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.skipped, b.skipped);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].seed, b.failures[i].seed);
    EXPECT_EQ(a.failures[i].detail, b.failures[i].detail);
  }
  // And the generator itself is stable, which is what repro relies on.
  EXPECT_EQ(to_string(random_point(5)), to_string(random_point(5)));
}

TEST(Fuzz, ShortRunIsClean) {
  const FuzzReport rep = run_fuzz(1, 10);
  EXPECT_EQ(rep.ran, 10u);
  EXPECT_TRUE(rep.failures.empty())
      << rep.failures.front().seed << ": " << rep.failures.front().detail;
}

// The model-divergence checker: the calibrated closed forms and the cycle
// simulator must agree within the self-calibrated band at every checked
// point, disagreement must surface as the *typed* failure (ModelDivergence,
// reported through CheckResult), and the fuzz harness must be replayable.

TEST(ModelCheck, CuratedFeasiblePointsPass) {
  // The differential smoke suite doubles as the model corpus (shared point
  // grammar); infeasible/unsupported entries must skip, never fail.
  for (const CheckPoint& p : smoke_points()) {
    const CheckResult r = check_model_point(p);
    EXPECT_TRUE(r.ok) << to_string(p) << ": " << r.detail;
  }
}

TEST(ModelCheck, InfeasibleAndUnsupportedPointsSkip) {
  CheckPoint fp64_on_rtx;
  fp64_on_rtx.device = "RTX 5090";
  fp64_on_rtx.precision = Precision::FP64;
  CheckResult r = check_model_point(fp64_on_rtx);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.skipped);

  CheckPoint infeasible;
  infeasible.algo = core::Algo::ThreeD;
  infeasible.options.warps = 27;  // 3x3x3 grid cannot divide 64^3
  r = check_model_point(infeasible);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.skipped) << r.detail;
}

TEST(ModelCheck, DivergenceIsTypedAndReported) {
  // A synthetic divergent prediction: the typed exception carries the
  // context, the tolerance and both cycle counts.
  model::Prediction pred;
  pred.cycles = 100.0;
  pred.analytic_cycles = 100.0;
  pred.calibrated = true;
  pred.confident = true;
  pred.rel_band = 0.05;
  pred.samples = 5;
  try {
    model::Predictor::require_within_band(pred, 200.0, "divergence test");
    FAIL() << "expected ModelDivergence";
  } catch (const model::ModelDivergence& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("divergence test"), std::string::npos);
  }
}

TEST(ModelCheck, FuzzIsDeterministicAndClean) {
  const FuzzReport a = run_model_fuzz(3, 6);
  const FuzzReport b = run_model_fuzz(3, 6);
  EXPECT_EQ(a.ran, 6u);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.skipped, b.skipped);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  EXPECT_TRUE(a.failures.empty())
      << a.failures.front().seed << ": " << a.failures.front().detail;
}

TEST(ModelCheck, FuzzReportIsWorkerCountInvariant) {
  const FuzzReport serial = run_model_fuzz(11, 6, 1);
  const FuzzReport parallel = run_model_fuzz(11, 6, 4);
  EXPECT_EQ(parallel.ran, serial.ran);
  EXPECT_EQ(parallel.passed, serial.passed);
  EXPECT_EQ(parallel.skipped, serial.skipped);
  EXPECT_EQ(parallel.failures.size(), serial.failures.size());
}

#if KAMI_CHECK_INVARIANTS

GemmResult<fp16_t> small_gemm() {
  const Matrix<fp16_t> A(32, 32), B(32, 32);
  return gemm(core::Algo::OneD, sim::gh200(), A, B);
}

TEST(Invariants, WarpClockRewindIsCaught) {
  // A huge negative skew makes some op's end time precede the warp clock;
  // the monotonicity invariant must fire as InvariantViolation (never as
  // PreconditionError, which callers treat as "infeasible").
  FaultHooks hooks;
  hooks.warp_advance_skew = -1e9;
  const ScopedFault fault(hooks);
  EXPECT_THROW((void)small_gemm(), InvariantViolation);
}

TEST(Invariants, PortBusyOverchargeIsCaught) {
  // Charging more busy cycles than the timeline reserved breaks the
  // conservation invariant busy <= free_at.
  FaultHooks hooks;
  hooks.port_busy_skew = 1e6;
  const ScopedFault fault(hooks);
  EXPECT_THROW((void)small_gemm(), InvariantViolation);
}

TEST(Invariants, ScopedFaultRestoresCleanState) {
  {
    FaultHooks hooks;
    hooks.warp_advance_skew = -1e9;
    const ScopedFault fault(hooks);
    EXPECT_THROW((void)small_gemm(), InvariantViolation);
  }
  EXPECT_NO_THROW((void)small_gemm());  // hooks restored on unwind
}

TEST(Invariants, SelftestReportsClean) { EXPECT_EQ(invariant_selftest(), ""); }

#endif  // KAMI_CHECK_INVARIANTS

}  // namespace
}  // namespace kami::verify
