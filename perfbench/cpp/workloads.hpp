// The four seeded workloads. Each drives the library only through its
// public calls and returns every end-to-end metric and, for a traced run,
// every per-layer metric (0 where the layer does not run in the workload).
#pragma once

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

Report run_sweep_full(const Options& opt, Tracer* tracer);
Report run_serve_fit(const Options& opt, Tracer* tracer);
Report run_serve_burst(const Options& opt, Tracer* tracer);
Report run_tune_grid(const Options& opt, Tracer* tracer);

/// Simulated Fig 8 average speed-ups (KAMI-1D/2D/3D over each panel's
/// baselines, panels a-e and g) against the paper's measured ones:
/// mean relative error in percent. `tflops` maps (panel, series, order) to
/// the simulated device TFLOPS of each feasible point.
struct Fig8Point {
  char panel = 'a';
  int series = 0;  ///< 0..2 = KAMI-1D/2D/3D, 3 = cuBLASDx-like, 4 = CUTLASS-like,
                   ///< 5 = SYCL-Bench-like
  std::size_t order = 0;
  double tflops = 0.0;
};
double fig8_speedup_error_pct(const std::vector<Fig8Point>& points);

/// The Fig 8 speed-up error from a TimingOnly replay of the Fig 8 grid (the
/// simulator's accuracy, which every workload's timing model shares).
double fig8_timing_replay_error_pct();

/// Per-layer metrics every traced run reports, zero-filled; workloads
/// overwrite the layers they exercise.
void zero_layer_metrics(Report& report);

/// Layer metrics shared by the workloads that serve or tune: prediction
/// error and predictor confidence from the given registry and the global
/// predictor.
void model_layer_metrics(const kami::obs::MetricRegistry& reg, Report& report);

}  // namespace perfbench
