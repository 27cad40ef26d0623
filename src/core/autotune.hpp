// Auto-tuning (§4.7: "we preset ratios in our implementation and allow user
// tuning to balance generality and specialization").
//
// The simulator makes exhaustive tuning cheap, and the calibrated analytic
// model makes it cheaper still. autotune_gemm runs in two passes:
//
//   1. Analytic prescreen (serial, deterministic): every candidate's plan is
//      resolved and ranked by the throughput the closed-form cost model
//      predicts for it (core/analytic_planner.hpp). Candidates whose
//      calibration bucket is confident and that rank below the policy's
//      top-K are pruned — their simulation never runs. Planner-default
//      candidates, cache-resident candidates (a hit costs nothing) and
//      low-confidence predictions are always simulated, so a cold predictor
//      degrades to the historical exhaustive sweep and the winner is always
//      chosen among *simulated* outcomes.
//   2. TimingOnly simulation of the survivors, folded in candidate order:
//      metric updates, winner selection and the predictor feedback (every
//      fresh simulation becomes a calibration observation).
//
// best_gemm runs the winner's numerics exactly once and reuses the tuned
// profile.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "core/analytic_planner.hpp"
#include "core/kami.hpp"
#include "core/profile_cache.hpp"
#include "obs/metrics.hpp"

namespace kami::core {

struct TuneCandidate {
  Algo algo = Algo::OneD;
  int warps = 0;           ///< 0 = planner default
  double smem_ratio = -1;  ///< <0 = planner default
};

struct TuneResult {
  TuneCandidate config;
  double tflops = 0.0;
  sim::KernelProfile profile;
  int warps = 0;           ///< the p the winner actually used
  double smem_ratio = 0.0; ///< the spill ratio the winner actually used
  int evaluated = 0;  ///< candidates that ran (infeasible ones are skipped)
  int pruned = 0;     ///< feasible candidates the analytic prescreen skipped
};

/// One candidate's simulated outcome (infeasible candidates stay !feasible).
struct TuneOutcome {
  bool feasible = false;
  double tflops = 0.0;
  sim::KernelProfile profile;
  int warps = 0;
  double smem_ratio = 0.0;
};

/// How aggressively the analytic prescreen prunes.
struct TunePolicy {
  /// false = the historical exhaustive sweep (every feasible candidate is
  /// simulated; the predictor still learns from the outcomes).
  bool prescreen = true;
  /// Confidently-predicted candidates to keep simulating, ranked by
  /// predicted device throughput. Planner defaults, cache hits and
  /// low-confidence candidates are simulated on top of this quota.
  int top_k = 8;
};

/// The default candidate grid: every algorithm at its natural warp counts,
/// planner-chosen spill ratio plus the Fig 10 presets.
std::vector<TuneCandidate> default_candidates();

/// Index of the winning outcome: highest throughput among feasible ones, the
/// first feasible candidate winning ties; -1 when none is feasible. The
/// winner is tracked by index rather than compared against a sentinel
/// `best.tflops = 0.0` — the old strict `>` against that sentinel could never
/// select a feasible candidate whose reported throughput was 0, returning a
/// default-constructed result despite passing the evaluated-count guard.
int select_winner(const std::vector<TuneOutcome>& outcomes);

template <Scalar T>
TuneResult autotune_gemm(const sim::DeviceSpec& dev, std::size_t m, std::size_t n,
                         std::size_t k, std::size_t blocks = 16384,
                         const std::vector<TuneCandidate>& candidates =
                             default_candidates(),
                         const TunePolicy& policy = {}) {
  KAMI_REQUIRE(m > 0 && n > 0 && k > 0,
               "matrix dimensions must be positive, got m=" + std::to_string(m) +
                   " n=" + std::to_string(n) + " k=" + std::to_string(k));
  constexpr Precision prec = num_traits<T>::precision;
  auto& metrics = obs::MetricRegistry::current();
  metrics.counter("autotune.runs").increment();
  obs::Counter& evaluated = metrics.counter("autotune.candidates_evaluated");
  obs::Counter& infeasible = metrics.counter("autotune.candidates_infeasible");
  obs::Counter& pruned_ctr = metrics.counter("autotune.candidates_pruned");
  ProfileCache& cache = ProfileCache::global();
  model::Predictor& predictor = model::Predictor::global();

  // -- phase 1: serial analytic prescreen. Resolving the plan answers
  // feasibility without simulating; the predictor ranks what's left.
  struct Screen {
    bool planned = false;  ///< plan_gemm accepted the candidate
    bool simulate = false;
    bool cached = false;
    Plan plan;
    GemmOptions opt;
    model::Prediction prediction;
    double predicted_tflops = 0.0;
  };
  std::vector<Screen> screens(candidates.size());
  // (index, predicted tflops) of confident non-default candidates — the only
  // ones the prescreen is allowed to prune.
  std::vector<std::pair<std::size_t, double>> prunable;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const TuneCandidate& cand = candidates[i];
    Screen& s = screens[i];
    s.opt.warps = cand.warps;
    s.opt.smem_ratio = cand.smem_ratio;
    try {
      s.plan = plan_gemm(cand.algo, dev, prec, m, n, k, s.opt);
    } catch (const PreconditionError&) {
      continue;  // infeasible for this shape (grid mismatch or registers)
    }
    s.planned = true;
    const ProfileKey key =
        ProfileKey::make(cand.algo, dev, prec, m, n, k, s.opt, s.plan);
    s.cached = cache.try_get(key).has_value();
    s.prediction = predictor.predict(dev, cand.algo, prec, m, n, k, s.plan.p,
                                     predict_options(s.opt));
    s.predicted_tflops = predicted_tflops(dev, prec, s.plan, m, n, k, s.prediction,
                                          s.opt, blocks);
    const bool planner_default = cand.warps == 0 && cand.smem_ratio < 0.0;
    if (policy.prescreen && s.prediction.confident && !s.cached && !planner_default)
      prunable.emplace_back(i, s.predicted_tflops);
    else
      s.simulate = true;
  }
  // Keep the top-K predicted candidates; everything below the cut is pruned.
  // Stable ranking: throughput descending, candidate order breaking ties.
  std::stable_sort(prunable.begin(), prunable.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  for (std::size_t r = 0; r < prunable.size(); ++r)
    if (r < static_cast<std::size_t>(std::max(policy.top_k, 0)))
      screens[prunable[r].first].simulate = true;

  // -- phase 2: simulate the survivors (TimingOnly through the cache: no
  // operands, no arithmetic) and fold each outcome in candidate order.
  std::vector<TuneOutcome> outcomes(candidates.size());
  TuneResult best;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Screen& s = screens[i];
    if (s.planned && !s.simulate) {
      ++best.pruned;
      pruned_ctr.increment();
      metrics.counter("model.predictions").increment();
      continue;
    }
    TuneOutcome& o = outcomes[i];
    if (s.planned) {
      try {
        const CachedProfile prof =
            timing_profile<T>(cache, candidates[i].algo, dev, m, n, k, s.opt);
        o = {true, sim::throughput_tflops(dev, prof.profile, blocks), prof.profile,
             prof.warps, prof.smem_ratio};
      } catch (const PreconditionError&) {
        // The simulation can still reject what the planner accepted (e.g. an
        // injected allocation fault); count it with the infeasible ones.
      }
    }
    if (!o.feasible) {
      infeasible.increment();
      continue;
    }
    ++best.evaluated;
    evaluated.increment();
    metrics.histogram("autotune.candidate_tflops").observe(o.tflops);
    if (s.prediction.calibrated && o.profile.latency > 0.0)
      metrics.histogram("model.prediction_error_pct")
          .observe(100.0 * std::abs(o.profile.latency - s.prediction.cycles) /
                   o.profile.latency);
    if (!s.cached && o.profile.latency > 0.0) {
      model::Observation obs;
      obs.device = dev.name;
      obs.algo = candidates[i].algo;
      obs.precision = prec;
      obs.m = m;
      obs.n = n;
      obs.k = k;
      obs.p = s.plan.p;
      obs.options = predict_options(s.opt);
      obs.simulated_cycles = o.profile.latency;
      predictor.observe(obs);
    }
  }
  const int winner = select_winner(outcomes);
  KAMI_REQUIRE(best.evaluated > 0 && winner >= 0,
               "no feasible configuration for m=" + std::to_string(m) + " n=" +
                   std::to_string(n) + " k=" + std::to_string(k) + " on " + dev.name +
                   " (" + std::to_string(candidates.size()) + " candidates tried)");
  const TuneOutcome& w = outcomes[static_cast<std::size_t>(winner)];
  best.config = candidates[static_cast<std::size_t>(winner)];
  best.tflops = w.tflops;
  best.profile = w.profile;
  best.warps = w.warps;
  best.smem_ratio = w.smem_ratio;
  return best;
}

/// Tune, then run the winning configuration on the given operands. Tuning
/// already produced the winner's profile, so the operands run through the
/// NumericsOnly fast path — the numerics execute exactly once.
template <Scalar T>
GemmResult<T> best_gemm(const sim::DeviceSpec& dev, const Matrix<T>& A,
                        const Matrix<T>& B, std::size_t blocks = 16384) {
  const auto tuned = autotune_gemm<T>(dev, A.rows(), B.cols(), A.cols(), blocks);
  GemmOptions opt;
  opt.warps = tuned.config.warps;
  opt.smem_ratio = tuned.config.smem_ratio;
  opt.mode = sim::ExecMode::NumericsOnly;
  GemmResult<T> r = gemm(tuned.config.algo, dev, A, B, opt);
  r.profile = tuned.profile;
  return r;
}

}  // namespace kami::core
