// BENCH_model: the calibrated analytic planner against ground truth.
//
// Three questions, one table each:
//   1. Calibration — what residual scale/band does each (algo) bucket fit
//      against the simulator on the calibration grid?
//   2. Accuracy — on *holdout* shapes (never calibrated on), how far is the
//      corrected closed form from the simulated latency, and does it stay
//      inside the promised band?
//   3. Speed — how many times faster is one estimate_plan() answer than the
//      TimingOnly simulation it replaces on the serving hot path?
//
// `model_planner --json results/BENCH_model.json` produces the checked-in
// report; the ctest fixture runs the same export and validates it with
// kami_prof.
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/analytic_planner.hpp"
#include "core/autotune.hpp"
#include "core/profile_cache.hpp"
#include "model/predictor.hpp"

namespace {

using namespace kami;
using bench::emit_table;
using bench::kBlocks;
using bench::run_report;

// The holdouts sit *between* calibration points: the band promises to hold
// for interpolation, not extrapolation (model/predictor.hpp, band_pad).
constexpr std::size_t kCalibration[] = {32, 48, 64, 96, 128};
constexpr std::size_t kHoldout[] = {80, 112};

struct AlgoAccuracy {
  std::size_t holdouts = 0;
  double mean_err_pct = 0.0;
  double max_err_pct = 0.0;
  bool within_band = true;
};

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void body() {
  const sim::DeviceSpec& dev = sim::gh200();
  constexpr Precision prec = Precision::FP16;
  core::ProfileCache cache(256);
  model::Predictor predictor;

  // -- calibrate every algorithm's bucket on the grid.
  for (const core::Algo algo : {core::Algo::OneD, core::Algo::TwoD, core::Algo::ThreeD})
    for (const std::size_t s : kCalibration) {
      try {
        (void)core::timing_profile<fp16_t>(cache, algo, dev, s, s, s);
      } catch (const PreconditionError&) {
        // infeasible grid point (e.g. register overflow); the rest calibrate
      }
    }
  const std::size_t fed = core::calibrate_from_cache(predictor, cache);

  TablePrinter calib({"algo", "p", "samples", "scale", "band %", "confident"});
  for (const auto& b : predictor.bucket_stats())
    calib.add_row({algo_name(b.algo), std::to_string(b.p),
                   std::to_string(b.samples), fmt_double(b.scale, 4),
                   fmt_double(100.0 * b.rel_band, 2), b.confident ? "yes" : "no"});
  emit_table(calib, "calibration (GH200, FP16, " + std::to_string(fed) +
                        " observations)");

  // -- holdout accuracy per algorithm: corrected formula vs fresh simulation.
  TablePrinter acc({"algo", "shape", "predicted cyc", "simulated cyc", "err %",
                    "band %", "in band"});
  double worst_err_pct = 0.0;
  bool all_within_band = true;
  for (const core::Algo algo :
       {core::Algo::OneD, core::Algo::TwoD, core::Algo::ThreeD}) {
    AlgoAccuracy a;
    for (const std::size_t s : kHoldout) {
      core::PlanEstimate est;
      double actual = 0.0;
      try {
        est = core::estimate_plan(cache, predictor, algo, dev, prec, s, s, s, {});
        core::ProfileCache fresh(8);
        actual =
            core::timing_profile<fp16_t>(fresh, algo, dev, s, s, s).profile.latency;
      } catch (const PreconditionError&) {
        acc.add_row({algo_name(algo), std::to_string(s), "-", "-", "-", "-",
                     "infeasible"});
        continue;
      }
      const double err = std::abs(actual - est.cycles) / actual;
      const bool in_band = err <= est.prediction.rel_band;
      a.holdouts += 1;
      a.mean_err_pct += 100.0 * err;
      a.max_err_pct = std::max(a.max_err_pct, 100.0 * err);
      a.within_band = a.within_band && in_band;
      acc.add_row({algo_name(algo), std::to_string(s), fmt_double(est.cycles, 1),
                   fmt_double(actual, 1), fmt_double(100.0 * err, 2),
                   fmt_double(100.0 * est.prediction.rel_band, 2),
                   in_band ? "yes" : "NO"});
    }
    worst_err_pct = std::max(worst_err_pct, a.max_err_pct);
    all_within_band = all_within_band && a.within_band;
    run_report().set_meta(std::string("err_max_pct_") + algo_name(algo),
                          fmt_double(a.max_err_pct, 2));
    run_report().set_meta(
        std::string("err_mean_pct_") + algo_name(algo),
        fmt_double(a.mean_err_pct / static_cast<double>(a.holdouts), 2));
  }
  emit_table(acc, "holdout prediction error");

  // -- planning time: a warm analytic answer vs the TimingOnly simulation it
  // replaces. The simulation is timed cold (fresh cache each rep) because
  // that is exactly the case the fast path removes from the serving path.
  constexpr int kAnalyticReps = 2000;
  constexpr int kSimReps = 5;
  const double t0 = now_ns();
  for (int i = 0; i < kAnalyticReps; ++i)
    (void)core::estimate_plan(cache, predictor, core::Algo::OneD, dev, prec, 112, 112,
                              112, {});
  const double analytic_ns = (now_ns() - t0) / kAnalyticReps;
  double sim_ns = 0.0;
  for (int i = 0; i < kSimReps; ++i) {
    core::ProfileCache fresh(8);
    const double s0 = now_ns();
    (void)core::timing_profile<fp16_t>(fresh, core::Algo::OneD, dev, 112, 112, 112);
    sim_ns += now_ns() - s0;
  }
  sim_ns /= kSimReps;
  const double speedup = sim_ns / std::max(analytic_ns, 1.0);

  TablePrinter timing({"path", "ns / decision", "speedup"});
  timing.add_row({"TimingOnly simulation (cold)", fmt_double(sim_ns, 0), "1.00"});
  timing.add_row({"estimate_plan (analytic, warm)", fmt_double(analytic_ns, 0),
                  fmt_double(speedup, 2)});
  emit_table(timing, "planning time, KAMI-1D 112^3 (GH200, FP16)");

  // -- autotune pruning: what the prescreen saves on a warm predictor.
  core::ProfileCache::global().clear();
  model::Predictor::global().reset();
  for (const std::size_t s : kCalibration)
    (void)core::autotune_gemm<fp16_t>(dev, s, s, s, kBlocks);
  core::ProfileCache::global().clear();  // predictions, not cache hits
  core::TunePolicy aggressive;
  aggressive.top_k = 2;
  const core::TuneResult warm = core::autotune_gemm<fp16_t>(
      dev, 112, 112, 112, kBlocks, core::default_candidates(), aggressive);
  TablePrinter tune({"autotune", "evaluated", "pruned", "winner tflops"});
  tune.add_row({"warm predictor, 112^3, top_k=2", std::to_string(warm.evaluated),
                std::to_string(warm.pruned), fmt_double(warm.tflops, 2)});
  emit_table(tune, "autotune prescreen");

  run_report().set_meta("prediction_err_max_pct", fmt_double(worst_err_pct, 2));
  run_report().set_meta("holdouts_within_band", all_within_band ? "yes" : "NO");
  run_report().set_meta("planning_ns_analytic", fmt_double(analytic_ns, 0));
  run_report().set_meta("planning_ns_simulated", fmt_double(sim_ns, 0));
  run_report().set_meta("planning_speedup", fmt_double(speedup, 2));
  run_report().set_meta("autotune_pruned_warm", std::to_string(warm.pruned));
  std::cout << "analytic planning is " << fmt_double(speedup, 1)
            << "x faster than simulation; worst holdout error "
            << fmt_double(worst_err_pct, 2) << "% (within band: "
            << (all_within_band ? "yes" : "NO") << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  return kami::bench::bench_main(argc, argv, "model_planner", body);
}
