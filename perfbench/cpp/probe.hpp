#pragma once

namespace perfbench {

struct ProbeResult {
  double f32_gflops = 0.0;  ///< single-core FP32 multiply-add peak
  double f64_gflops = 0.0;  ///< single-core FP64 multiply-add peak
  double triad_gbs = 0.0;   ///< single-core streaming triad bandwidth
};

ProbeResult run_probe();

}  // namespace perfbench
