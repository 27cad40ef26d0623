// The three-tier fast path (cache -> calibrated formula -> simulate), its
// never-simulates contract for estimate_plan, and the model.* accounting.
#include "core/analytic_planner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/profile_cache.hpp"
#include "obs/metrics.hpp"

namespace kami::core {
namespace {

const sim::DeviceSpec& dev() { return sim::gh200(); }

double counter(const char* name) {
  return obs::MetricRegistry::global().counter(name).value();
}

/// Warm predictor calibration from a few neighboring shapes.
void calibrate(ProfileCache& cache, model::Predictor& pred) {
  for (const std::size_t s : {32u, 48u, 64u})
    (void)timing_profile<fp16_t>(cache, Algo::OneD, dev(), s, s, s);
  ASSERT_GE(calibrate_from_cache(pred, cache), 3u);
}

TEST(AnalyticPlanner, ColdStateIsUnplannedAndNeverSimulates) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(16);
  const model::Predictor pred;
  const PlanEstimate est = estimate_plan(cache, pred, Algo::OneD, dev(),
                                         Precision::FP16, 64, 64, 64, {});
  EXPECT_EQ(est.source, PlanSource::Unplanned);
  EXPECT_FALSE(est.profile.has_value());
  EXPECT_EQ(cache.size(), 0u);  // the contract: estimate_plan never simulates
  EXPECT_FALSE(est.prediction.confident);
  // Even untrusted, the estimate is the raw closed form, not garbage.
  EXPECT_DOUBLE_EQ(est.cycles, est.prediction.analytic_cycles);
  EXPECT_GT(est.cycles, 0.0);
  EXPECT_GT(est.plan.p, 0);
}

TEST(AnalyticPlanner, CacheHitIsExactAndCounted) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(16);
  const model::Predictor pred;
  const CachedProfile truth =
      timing_profile<fp16_t>(cache, Algo::OneD, dev(), 64, 64, 64);
  const PlanEstimate est = estimate_plan(cache, pred, Algo::OneD, dev(),
                                         Precision::FP16, 64, 64, 64, {});
  EXPECT_EQ(est.source, PlanSource::Cache);
  ASSERT_TRUE(est.profile.has_value());
  EXPECT_DOUBLE_EQ(est.cycles, truth.profile.latency);
  EXPECT_EQ(counter("model.cache_hits"), 1.0);
}

TEST(AnalyticPlanner, CalibratedPredictionIsAnalyticAndWithinBand) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(16);
  model::Predictor pred;
  calibrate(cache, pred);

  // 96 was not simulated: the answer must come from the corrected formula.
  const PlanEstimate est = estimate_plan(cache, pred, Algo::OneD, dev(),
                                         Precision::FP16, 96, 96, 96, {});
  ASSERT_EQ(est.source, PlanSource::Analytic);
  EXPECT_EQ(counter("model.predictions"), 1.0);
  EXPECT_TRUE(est.prediction.confident);

  // The calibrated band is a real promise: the simulator must land inside it.
  ProfileCache fresh(16);
  const double actual =
      timing_profile<fp16_t>(fresh, Algo::OneD, dev(), 96, 96, 96).profile.latency;
  EXPECT_NO_THROW(
      model::Predictor::require_within_band(est.prediction, actual, "planner test"));
  EXPECT_LE(std::abs(actual - est.cycles) / actual, est.prediction.rel_band);
}

TEST(AnalyticPlanner, PlanCyclesFallsBackOnceThenServesFromCache) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(16);
  model::Predictor pred;
  const PlanEstimate cold =
      plan_cycles<fp16_t>(cache, pred, Algo::OneD, dev(), 64, 64, 64);
  EXPECT_EQ(cold.source, PlanSource::Simulated);
  ASSERT_TRUE(cold.profile.has_value());
  EXPECT_EQ(counter("model.fallbacks"), 1.0);
  EXPECT_EQ(cache.size(), 1u);            // the fallback warmed the cache
  EXPECT_EQ(pred.observation_count(), 1u);  // ... and fed the predictor

  const PlanEstimate warm =
      plan_cycles<fp16_t>(cache, pred, Algo::OneD, dev(), 64, 64, 64);
  EXPECT_EQ(warm.source, PlanSource::Cache);
  EXPECT_DOUBLE_EQ(warm.cycles, cold.cycles);
  EXPECT_EQ(counter("model.fallbacks"), 1.0);  // no second simulation
}

TEST(AnalyticPlanner, PredictedTflopsRanksLikeSimulation) {
  ProfileCache cache(16);
  model::Predictor pred;
  calibrate(cache, pred);
  const GemmOptions opt;
  const auto predicted = [&](std::size_t s) {
    const Plan plan = plan_gemm(Algo::OneD, dev(), Precision::FP16, s, s, s, opt);
    const model::Prediction pr =
        pred.predict(dev(), Algo::OneD, Precision::FP16, s, s, s, plan.p,
                     predict_options(opt));
    return predicted_tflops(dev(), Precision::FP16, plan, s, s, s, pr, opt, 16384);
  };
  const auto simulated = [&](std::size_t s) {
    ProfileCache fresh(16);
    return sim::throughput_tflops(
        dev(), timing_profile<fp16_t>(fresh, Algo::OneD, dev(), s, s, s).profile,
        16384);
  };
  // Absolute agreement is the predictor's band; what the autotuner needs is
  // the *ordering* on the shared scale.
  EXPECT_GT(predicted(96), 0.0);
  EXPECT_EQ(predicted(96) > predicted(32), simulated(96) > simulated(32));
}

TEST(AnalyticPlanner, ObservationRoundTripsThroughCacheKey) {
  ProfileCache cache(16);
  GemmOptions opt;
  opt.charge_global_io = true;
  opt.theta_r = 0.5;
  (void)timing_profile<fp16_t>(cache, Algo::TwoD, dev(), 64, 64, 64, opt);
  const auto snap = cache.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const model::Observation o = observation_from(snap[0].first, snap[0].second);
  EXPECT_EQ(o.device, dev().name);
  EXPECT_EQ(o.algo, Algo::TwoD);
  EXPECT_EQ(o.p, snap[0].second.warps);
  EXPECT_TRUE(o.options.charge_global_io);
  EXPECT_DOUBLE_EQ(o.options.theta_r, 0.5);
  EXPECT_DOUBLE_EQ(o.simulated_cycles, snap[0].second.profile.latency);
}

}  // namespace
}  // namespace kami::core
