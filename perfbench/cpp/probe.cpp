// Host probe: single-core floating-point peak and streaming bandwidth.
//
// The peak loop runs independent multiply-add chains on GCC vector types of
// 32 bytes, which the compiler lowers to whatever vector width this build
// targets, so the figure is the peak the build's own numeric kernels could
// reach. The bandwidth loop is a STREAM-style triad over arrays far larger
// than the last-level cache. Each figure is the best of several short
// repeats. run.py calls the probe in its own process before and after every
// workload, so its buffers never count toward the workload's peak RSS.
#include "probe.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

template <typename S>
double peak_gflops() {
  typedef S V __attribute__((vector_size(32)));
  constexpr int kLanes = static_cast<int>(32 / sizeof(S));
  constexpr int kChains = 8;  // enough independent chains to hide latency
  constexpr long kIters = 4'000'000;
  volatile S seed = static_cast<S>(0.999999);
  V a, b;
  V acc[kChains];
  for (int l = 0; l < kLanes; ++l) {
    a[l] = seed;
    b[l] = static_cast<S>(1e-7) * seed;
  }
  for (int c = 0; c < kChains; ++c) acc[c] = a * static_cast<S>(c + 1);

  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (long i = 0; i < kIters; ++i)
      for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * a + b;
    const double s = seconds_between(t0, Clock::now());
    best = std::max(best, 2.0 * kLanes * kChains * static_cast<double>(kIters) / s / 1e9);
  }
  S sink = 0;
  for (int c = 0; c < kChains; ++c)
    for (int l = 0; l < kLanes; ++l) sink += acc[c][l];
  volatile S keep = sink;
  (void)keep;
  return best;
}

double triad_gbytes() {
  constexpr std::size_t kN = 8u << 20;  // 3 arrays x 64 MiB of doubles
  std::vector<double> x(kN, 1.0), y(kN, 2.0), z(kN, 0.0);
  volatile double scale = 3.0;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double s_ = scale;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kN; ++i) z[i] = x[i] + s_ * y[i];
    const double s = seconds_between(t0, Clock::now());
    best = std::max(best, 3.0 * sizeof(double) * static_cast<double>(kN) / s / 1e9);
    std::swap(x, z);
  }
  volatile double keep = x[kN / 2];
  (void)keep;
  return best;
}

}  // namespace

ProbeResult run_probe() {
  return ProbeResult{peak_gflops<float>(), peak_gflops<double>(), triad_gbytes()};
}

}  // namespace perfbench
