#include "model/predictor.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

void zero_layer_metrics(Report& report) {
  static const char* const kLayerMetrics[] = {
      "sim.timing_us",           "sim.ns_per_cycle",
      "core.numerics_gflops",    "core.numerics_peak_pct",
      "core.numerics_share_pct", "core.full_coupling_pct",
      "core.batched_us_per_entry",
      "baselines.share_pct",     "baselines.reference_ms",
      "baselines.reference_share_pct",
      "core.estimate_plan_us",   "model.trusted_route_pct",
      "model.prediction_error_p50_pct", "model.confident_buckets",
      "autotune.pruned_pct",     "autotune.simulated_per_decision",
      "autotune.prescreen_us",   "cache.hit_pct",
      "cache.evictions",
      "serve.route_us",          "serve.self_us",
      "serve.hedged_pct",        "serve.failovers",
      "serve.degraded_pct",      "serve.rejected_pct",
      "serve.drain_ms",          "serve.queue_depth_max",
      "obs.histogram_samples",   "trace.overhead_pct",
  };
  for (const char* name : kLayerMetrics) report.metrics.emplace(name, 0.0);
}

void model_layer_metrics(const kami::obs::MetricRegistry& reg, Report& report) {
  const kami::obs::Histogram* err = reg.find_histogram("model.prediction_error_pct");
  report.metrics["model.prediction_error_p50_pct"] = err ? err->percentile(50.0) : 0.0;
  double confident = 0.0;
  for (const auto& b : kami::model::Predictor::global().bucket_stats())
    confident += b.confident ? 1.0 : 0.0;
  report.metrics["model.confident_buckets"] = confident;
}

}  // namespace perfbench
