#include "model/predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "model/cost_model.hpp"
#include "util/require.hpp"

namespace kami::model {
namespace {

const sim::DeviceSpec& dev() { return sim::gh200(); }

Observation obs_for(std::size_t s, double simulated, Algo algo = Algo::OneD,
                    int p = 4) {
  Observation o;
  o.device = dev().name;
  o.algo = algo;
  o.precision = Precision::FP16;
  o.m = o.n = o.k = s;
  o.p = p;
  o.simulated_cycles = simulated;
  return o;
}

double raw(std::size_t s, Algo algo = Algo::OneD, int p = 4) {
  return Predictor::analytic_cycles(dev(), algo, Precision::FP16, s, s, s, p);
}

TEST(Predictor, AnalyticCyclesMatchesClosedForms) {
  // The static entry point is exactly the expanded totals (4)/(8)/(12) on
  // Params::from_device — no correction, no hidden terms.
  for (const Algo algo : {Algo::OneD, Algo::TwoD, Algo::ThreeD}) {
    const int p = algo == Algo::OneD ? 2 : (algo == Algo::TwoD ? 4 : 8);
    const Params q = Params::from_device(dev(), Precision::FP16, 64, 64, 64, p);
    const Cost c = algo == Algo::OneD ? cost_1d(q)
                   : algo == Algo::TwoD ? cost_2d(q)
                                        : cost_3d(q);
    EXPECT_DOUBLE_EQ(
        Predictor::analytic_cycles(dev(), algo, Precision::FP16, 64, 64, 64, p),
        c.T_all);
  }
}

TEST(Predictor, UncalibratedPredictionIsRawFormula) {
  const Predictor pred;
  const Prediction p = pred.predict(dev(), Algo::OneD, Precision::FP16, 64, 64, 64, 4);
  EXPECT_FALSE(p.calibrated);
  EXPECT_FALSE(p.confident);
  EXPECT_DOUBLE_EQ(p.scale, 1.0);
  EXPECT_DOUBLE_EQ(p.cycles, p.analytic_cycles);
  EXPECT_DOUBLE_EQ(p.analytic_cycles, raw(64));
}

TEST(Predictor, CalibrationLearnsSystematicScale) {
  Predictor pred;
  // A perfectly systematic simulator: always 1.2x the formula.
  for (const std::size_t s : {32u, 64u, 96u}) pred.observe(obs_for(s, 1.2 * raw(s)));
  const Prediction p = pred.predict(dev(), Algo::OneD, Precision::FP16, 48, 48, 48, 4);
  EXPECT_TRUE(p.calibrated);
  EXPECT_TRUE(p.confident);
  EXPECT_EQ(p.samples, 3u);
  EXPECT_NEAR(p.scale, 1.2, 1e-9);
  EXPECT_NEAR(p.cycles, 1.2 * raw(48), 1e-6);
  // Identical residuals: the band collapses to its floor, not to zero.
  EXPECT_DOUBLE_EQ(p.rel_band, Predictor::kBandFloor);
}

TEST(Predictor, FitIsOrderIndependent) {
  const double sims[] = {1.15, 1.3, 1.2};
  const std::size_t dims[] = {32, 64, 96};
  Predictor fwd, rev;
  for (int i = 0; i < 3; ++i) fwd.observe(obs_for(dims[i], sims[i] * raw(dims[i])));
  for (int i = 2; i >= 0; --i) rev.observe(obs_for(dims[i], sims[i] * raw(dims[i])));
  const auto a = fwd.predict(dev(), Algo::OneD, Precision::FP16, 48, 48, 48, 4);
  const auto b = rev.predict(dev(), Algo::OneD, Precision::FP16, 48, 48, 48, 4);
  EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.scale, b.scale);
  EXPECT_DOUBLE_EQ(a.rel_band, b.rel_band);
}

TEST(Predictor, DispersionWidensBandAndBreaksConfidence) {
  Predictor pred;
  // Ratios 1.0 and 2.0: no single scale explains both, so the padded band
  // must exceed kTrustRelError and the bucket must not be trusted.
  pred.observe(obs_for(32, 1.0 * raw(32)));
  pred.observe(obs_for(64, 2.0 * raw(64)));
  pred.observe(obs_for(96, 1.0 * raw(96)));
  const Prediction p = pred.predict(dev(), Algo::OneD, Precision::FP16, 48, 48, 48, 4);
  EXPECT_TRUE(p.calibrated);
  EXPECT_GT(p.rel_band, Predictor::kTrustRelError);
  EXPECT_FALSE(p.confident);
}

TEST(Predictor, BucketsSplitByAlgoWarpsAndIoCharging) {
  Predictor pred;
  pred.observe(obs_for(64, 1.2 * raw(64)));
  Observation io = obs_for(64, 1.9 * raw(64));
  io.options.charge_global_io = true;
  pred.observe(io);
  Observation two = obs_for(64, 1.1 * raw(64, Algo::TwoD), Algo::TwoD);
  pred.observe(two);
  // Same algo, different warp count: its residual is fit separately (the
  // overheads the formula ignores scale with the warp grid).
  pred.observe(obs_for(64, 1.5 * raw(64, Algo::OneD, 8), Algo::OneD, 8));
  EXPECT_EQ(pred.bucket_count(), 4u);
  EXPECT_EQ(pred.observation_count(), 4u);
  const auto stats = pred.bucket_stats();
  ASSERT_EQ(stats.size(), 4u);
  for (const auto& b : stats) EXPECT_EQ(b.samples, 1u);
}

TEST(Predictor, MinSamplesGateCalibration) {
  static_assert(Predictor::kMinSamples == 3, "two observations stay below the gate");
  Predictor pred;
  pred.observe(obs_for(32, 1.2 * raw(32)));
  pred.observe(obs_for(64, 1.2 * raw(64)));
  const Prediction two =
      pred.predict(dev(), Algo::OneD, Precision::FP16, 48, 48, 48, 4);
  EXPECT_FALSE(two.calibrated);
  EXPECT_DOUBLE_EQ(two.scale, 1.0);  // an unfit bucket never corrects
  pred.observe(obs_for(96, 1.2 * raw(96)));
  EXPECT_TRUE(
      pred.predict(dev(), Algo::OneD, Precision::FP16, 48, 48, 48, 4).calibrated);
}

TEST(Predictor, RejectsLatencyFreeObservations) {
  Predictor pred;
  EXPECT_THROW(pred.observe(obs_for(64, 0.0)), PreconditionError);
  EXPECT_THROW(pred.observe(obs_for(64, -5.0)), PreconditionError);
  EXPECT_EQ(pred.observation_count(), 0u);
}

TEST(Predictor, RequireWithinBandThrowsTypedDivergence) {
  Predictor pred;
  for (const std::size_t s : {32u, 64u, 96u}) pred.observe(obs_for(s, 1.2 * raw(s)));
  const Prediction p = pred.predict(dev(), Algo::OneD, Precision::FP16, 48, 48, 48, 4);
  // Inside the band: the prediction itself, trivially.
  EXPECT_NO_THROW(Predictor::require_within_band(p, p.cycles, "selftest"));
  // Far outside: a typed ModelDivergence (catchable as such, not just as
  // runtime_error) carrying the context string.
  try {
    Predictor::require_within_band(p, 10.0 * p.cycles, "selftest");
    FAIL() << "expected ModelDivergence";
  } catch (const ModelDivergence& e) {
    EXPECT_NE(std::string(e.what()).find("selftest"), std::string::npos);
  }
}

TEST(Predictor, ResetClearsCalibration) {
  Predictor pred;
  for (const std::size_t s : {32u, 64u, 96u}) pred.observe(obs_for(s, 1.2 * raw(s)));
  pred.reset();
  EXPECT_EQ(pred.bucket_count(), 0u);
  EXPECT_EQ(pred.observation_count(), 0u);
  EXPECT_FALSE(
      pred.predict(dev(), Algo::OneD, Precision::FP16, 64, 64, 64, 4).calibrated);
}

TEST(Predictor, GlobalIsSingleton) {
  EXPECT_EQ(&Predictor::global(), &Predictor::global());
}

}  // namespace
}  // namespace kami::model
