#include "verify/model_check.hpp"

#include <sstream>

#include "core/analytic_planner.hpp"
#include "core/profile_cache.hpp"
#include "exec/engine.hpp"

namespace kami::verify {
namespace {

/// The calibration grid: cube shapes spanning the tier the fuzz generator
/// draws from (16..96) plus one extrapolation point above it. Cubes keep the
/// grid small while still exercising every shape-dependent formula term
/// (m, n and k all vary together).
constexpr std::size_t kCalibrationDims[] = {16, 32, 48, 64, 96, 128};

template <Scalar T>
CheckResult model_check_impl(const CheckPoint& p) {
  const sim::DeviceSpec& dev = sim::device_by_name(p.device);
  if (!dev.supports(num_traits<T>::precision))
    return {true, true,
            std::string(precision_name(num_traits<T>::precision)) +
                " not supported on " + dev.name};

  // Resolve the plan first: an infeasible point has no latency to predict,
  // and plan_gemm rejects it exactly as the kernel would.
  core::Plan plan;
  try {
    plan = core::plan_gemm(p.algo, dev, num_traits<T>::precision, p.m, p.n, p.k,
                           p.options);
  } catch (const PreconditionError& e) {
    return {true, true, std::string("infeasible: ") + e.what()};
  }

  // The closed forms only claim shapes that divide the precision's MMA tile;
  // the predictor refuses ragged shapes (domain gate), so there is nothing to
  // check against — the planner always simulates them.
  const sim::MmaShape tile = dev.mma_shape(num_traits<T>::precision);
  if (p.m % static_cast<std::size_t>(tile.m) != 0 ||
      p.n % static_cast<std::size_t>(tile.n) != 0 ||
      p.k % static_cast<std::size_t>(tile.k) != 0) {
    std::ostringstream os;
    os << "ragged shape outside the analytic model's domain (MMA tile m" << tile.m
       << "n" << tile.n << "k" << tile.k << ")";
    return {true, true, os.str()};
  }

  // Hermetic calibration: simulate the grid (holding the point's own shape
  // out) into a local cache, then harvest it into a local predictor. Grid
  // shapes the options make infeasible are simply absent from the fit.
  core::ProfileCache cache;
  model::Predictor predictor;
  for (const std::size_t s : kCalibrationDims) {
    if (s == p.m && s == p.n && s == p.k) continue;  // holdout
    try {
      (void)core::timing_profile<T>(cache, p.algo, dev, s, s, s, p.options);
    } catch (const PreconditionError&) {
      continue;
    }
  }
  const std::size_t fed = core::calibrate_from_cache(predictor, cache);

  const model::Prediction prediction =
      predictor.predict(dev, p.algo, num_traits<T>::precision, p.m, p.n, p.k, plan.p,
                        core::predict_options(p.options));
  if (!prediction.calibrated) {
    std::ostringstream os;
    os << "bucket uncalibrated after grid (" << fed << " of "
       << model::Predictor::kMinSamples << " needed observations)";
    return {true, true, os.str()};
  }

  const core::CachedProfile actual =
      core::timing_profile<T>(cache, p.algo, dev, p.m, p.n, p.k, p.options);
  try {
    model::Predictor::require_within_band(prediction, actual.profile.latency,
                                          "model check [" + to_string(p) + "]");
  } catch (const model::ModelDivergence& e) {
    return {false, false, e.what()};
  }
  return {true, false, ""};
}

}  // namespace

CheckResult check_model_point(const CheckPoint& p) {
  switch (p.precision) {
    case Precision::FP64: return model_check_impl<double>(p);
    case Precision::FP32: return model_check_impl<float>(p);
    case Precision::TF32: return model_check_impl<tf32_t>(p);
    case Precision::FP16: return model_check_impl<fp16_t>(p);
    case Precision::BF16: return model_check_impl<bf16_t>(p);
    case Precision::FP8E4M3: return model_check_impl<fp8_e4m3_t>(p);
  }
  throw PreconditionError("unknown precision in check point");
}

FuzzReport run_model_fuzz(std::uint64_t base_seed, std::size_t iters, int workers) {
  // Same fan-out/fold shape as run_fuzz: outcomes land in seed-indexed slots
  // and fold serially, so the report is bit-identical at every worker count.
  const exec::ExecutionEngine engine(workers);
  struct Outcome {
    CheckResult result;
    std::string spec;
  };
  const auto outcomes = engine.parallel_map<Outcome>(iters, [&](std::size_t i) {
    const CheckPoint p = random_point(base_seed + i);
    Outcome o;
    o.spec = to_string(p);
    try {
      o.result = check_model_point(p);
    } catch (const std::exception& e) {
      o.result = CheckResult{false, false, std::string("exception: ") + e.what()};
    }
    return o;
  });

  FuzzReport rep;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    ++rep.ran;
    if (!o.result.ok)
      rep.failures.push_back({base_seed + i, o.result.detail + " [" + o.spec + "]"});
    else if (o.result.skipped)
      ++rep.skipped;
    else
      ++rep.passed;
  }
  return rep;
}

}  // namespace kami::verify
