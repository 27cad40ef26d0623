// Batched GEMM driver (§5.4).
//
// KAMI's batched interface mirrors cuBLAS/MAGMA batched GEMM: a vector of
// independent small products, one thread block per matrix, each block
// running the KAMI block-level kernel with its global loads/stores charged
// (in the batched setting every matrix really is fetched from global
// memory, which is why §5.4's absolute numbers sit below the block-level
// ones). Matrix shapes may vary within a batch.
//
// Two entry points:
//  * kami_batched_gemm    — computes every product (tests, applications);
//  * kami_batched_perf    — cost extrapolation for large batches: one block
//    per distinct shape is simulated and the paper's launch setup added.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/kami.hpp"
#include "core/numeric_path.hpp"
#include "core/profile_cache.hpp"
#include "exec/engine.hpp"

namespace kami::core {

inline constexpr double kKamiBatchSetupSeconds = 1e-6;

template <Scalar T>
struct BatchedResult {
  std::vector<Matrix<T>> C;
  double seconds = 0.0;
  double tflops = 0.0;
};

/// Extrapolated throughput for `batch` identical (m, n, k) blocks.
struct BatchedPerf {
  double seconds = 0.0;
  double tflops = 0.0;
  sim::KernelProfile per_block;
};

template <Scalar T>
BatchedPerf kami_batched_perf(const sim::DeviceSpec& dev, std::size_t m, std::size_t n,
                              std::size_t k, std::size_t batch, Algo algo = Algo::OneD,
                              GemmOptions opt = {}) {
  KAMI_REQUIRE(batch >= 1, "perf extrapolation needs at least one block, got batch=0");
  opt.charge_global_io = true;
  // Only the cycle profile is consumed, so one TimingOnly simulation —
  // served by the profile cache across sweep points — replaces the old
  // full run on random operands.
  const CachedProfile prof =
      timing_profile<T>(ProfileCache::global(), algo, dev, m, n, k, opt);

  BatchedPerf perf;
  perf.per_block = prof.profile;
  const double interval = sim::steady_interval_cycles(dev, prof.profile);
  const double waves =
      std::ceil(static_cast<double>(batch) / static_cast<double>(dev.num_sms));
  perf.seconds = waves * interval / (dev.boost_clock_ghz * 1e9) + kKamiBatchSetupSeconds;
  perf.tflops =
      prof.profile.useful_flops * static_cast<double>(batch) / perf.seconds / 1e12;
  return perf;
}

/// Full-value batched execution; shapes may vary per entry. The result holds
/// no per-entry trace or phases, so GemmOptions::record_trace and
/// record_regions do not change what runs.
template <Scalar T>
BatchedResult<T> kami_batched_gemm(const sim::DeviceSpec& dev,
                                   std::span<const Matrix<T>> As,
                                   std::span<const Matrix<T>> Bs,
                                   Algo algo = Algo::OneD, GemmOptions opt = {}) {
  KAMI_REQUIRE(As.size() == Bs.size(),
               "batch lists must have equal length, got " + std::to_string(As.size()) +
                   " A matrices and " + std::to_string(Bs.size()) + " B matrices");
  // An empty batch is a well-defined no-op (no products, only launch setup),
  // identically in every execution mode — not an error.
  if (As.empty()) return BatchedResult<T>{{}, kKamiBatchSetupSeconds, 0.0};
  opt.charge_global_io = true;

  // Entries are independent: fan out across the execution engine
  // (GemmOptions::threads / KAMI_THREADS; 1 == the historical serial loop).
  // Results land in pre-sized slots indexed by entry, so the output is
  // bit-identical for every worker count.
  const exec::ExecutionEngine engine(opt.threads);

  BatchedResult<T> out;
  // Blocks are independent; identical shapes share one simulated profile.
  std::map<std::array<std::size_t, 3>, sim::KernelProfile> shape_profiles;
  double total_flops = 0.0;

  if (opt.mode == sim::ExecMode::Full) {
    // Fast path: one TimingOnly simulation per distinct shape (served by
    // the profile cache across calls), then every entry's values run the
    // NumericsOnly path. Results and profiles are bit-identical to the
    // per-entry Full loop (tested).
    //
    // Profile phase: distinct shapes in first-appearance order, so an
    // infeasible shape surfaces the same exception the per-entry loop
    // would have hit first.
    std::vector<std::array<std::size_t, 3>> distinct;
    for (std::size_t i = 0; i < As.size(); ++i) {
      const std::array<std::size_t, 3> key{As[i].rows(), Bs[i].cols(), As[i].cols()};
      if (shape_profiles.emplace(key, sim::KernelProfile{}).second)
        distinct.push_back(key);
    }
    const auto profiles = engine.parallel_map<sim::KernelProfile>(
        distinct.size(), [&](std::size_t j) {
          const auto& key = distinct[j];
          return timing_profile<T>(ProfileCache::global(), algo, dev, key[0], key[1],
                                   key[2], opt)
              .profile;
        });
    // The plan is also per-shape: cache the 3D layer split (1D/2D reduce in
    // one chain, layers = 1) so the numeric phase below never re-enters the
    // planner — per-entry planning was ~40% of small-shape batch time.
    std::map<std::array<std::size_t, 3>, std::size_t> shape_layers;
    for (std::size_t j = 0; j < distinct.size(); ++j) {
      shape_profiles[distinct[j]] = profiles[j];
      std::size_t layers = 1;
      if (algo == Algo::ThreeD) {
        const auto& key = distinct[j];
        layers = static_cast<std::size_t>(
            plan_gemm(algo, dev, num_traits<T>::precision, key[0], key[1], key[2], opt)
                .grid);
      }
      shape_layers[distinct[j]] = layers;
    }

    // Numerics phase: every entry's values through the NumericsOnly kernel,
    // straight into the output slot (no GemmResult plumbing, no planner).
    out.C = engine.parallel_map<Matrix<T>>(As.size(), [&](std::size_t i) {
      KAMI_REQUIRE(Bs[i].rows() == As[i].cols(), "inner dimensions must agree");
      const std::size_t m = As[i].rows(), n = Bs[i].cols(), k = As[i].cols();
      Matrix<T> C(m, n);
      numeric_gemm_into(As[i].data(), Bs[i].data(), C.data(), m, n, k,
                        shape_layers.at({m, n, k}));
      return C;
    });
    for (std::size_t i = 0; i < As.size(); ++i)
      total_flops +=
          shape_profiles[{As[i].rows(), Bs[i].cols(), As[i].cols()}].useful_flops;
  } else {
    auto results = engine.parallel_map<GemmResult<T>>(As.size(), [&](std::size_t i) {
      return gemm(algo, dev, As[i], Bs[i], opt);
    });
    out.C.reserve(As.size());
    for (std::size_t i = 0; i < As.size(); ++i) {
      shape_profiles[{As[i].rows(), Bs[i].cols(), As[i].cols()}] = results[i].profile;
      total_flops += results[i].profile.useful_flops;
      out.C.push_back(std::move(results[i].C));
    }
  }

  // Completion time: blocks spread round-robin over SMs (the same wave model
  // as kami_batched_perf — for `batch` identical shapes the most-loaded SM
  // carries ceil(batch / num_sms) blocks, i.e. one interval per wave). The
  // batch can never finish before the longest single block's steady interval,
  // so small batches no longer divide one block's time across idle SMs.
  std::vector<double> sm_load(static_cast<std::size_t>(dev.num_sms), 0.0);
  double completion = 0.0;
  for (std::size_t i = 0; i < As.size(); ++i) {
    const auto& prof = shape_profiles[{As[i].rows(), Bs[i].cols(), As[i].cols()}];
    const double interval = sim::steady_interval_cycles(dev, prof);
    double& load = sm_load[i % sm_load.size()];
    load += interval;
    completion = std::max({completion, interval, load});
  }
  out.seconds = std::max(completion, sim::Cycles{1.0}) / (dev.boost_clock_ghz * 1e9) +
                kKamiBatchSetupSeconds;
  out.tflops = total_flops / out.seconds / 1e12;
  return out;
}

/// cuBLAS-style strided-batched interface: operands stacked row-wise in two
/// tall matrices (batch*m x k and batch*k x n); returns the stacked
/// batch*m x n product. Interface parity with cublasGemmStridedBatched
/// (§5.4: "KAMI's batched interface is consistent with cuBLAS and MAGMA").
template <Scalar T>
Matrix<T> kami_gemm_strided_batched(const sim::DeviceSpec& dev, const Matrix<T>& Astack,
                                    const Matrix<T>& Bstack, std::size_t batch,
                                    Algo algo = Algo::OneD, GemmOptions opt = {}) {
  KAMI_REQUIRE(batch >= 1, "strided batch must be non-empty, got batch=0 (stacked "
                           "operands cannot define a block shape)");
  KAMI_REQUIRE(Astack.rows() % batch == 0 && Bstack.rows() % batch == 0,
               "stacked operand heights must be multiples of the batch size: A is " +
                   std::to_string(Astack.rows()) + " rows, B is " +
                   std::to_string(Bstack.rows()) + " rows, batch=" +
                   std::to_string(batch));
  const std::size_t m = Astack.rows() / batch;
  const std::size_t k = Astack.cols();
  const std::size_t n = Bstack.cols();
  KAMI_REQUIRE(Bstack.rows() / batch == k,
               "inner dimensions must agree: A blocks are " + std::to_string(m) + "x" +
                   std::to_string(k) + " but B blocks are " +
                   std::to_string(Bstack.rows() / batch) + "x" + std::to_string(n));

  if (opt.mode == sim::ExecMode::Full) {
    // Zero-copy fast path: every block shares one (m, n, k), so one cached
    // TimingOnly simulation establishes feasibility (surfacing the same
    // planner exception the staged path would), and the numeric kernel runs
    // directly on the stacked storage — row-major contiguous blocks mean no
    // stack/unstack copies and no per-block Matrix allocations at all.
    GemmOptions probe = opt;
    probe.charge_global_io = true;
    timing_profile<T>(ProfileCache::global(), algo, dev, m, n, k, probe);
    std::size_t layers = 1;
    if (algo == Algo::ThreeD)
      layers = static_cast<std::size_t>(
          plan_gemm(algo, dev, num_traits<T>::precision, m, n, k, probe).grid);

    Matrix<T> Cstack(batch * m, n);
    const exec::ExecutionEngine engine(opt.threads);
    engine.parallel_for(batch, [&](std::size_t b) {
      numeric_gemm_into(Astack.data() + b * m * k, Bstack.data() + b * k * n,
                        Cstack.data() + b * m * n, m, n, k, layers);
    });
    return Cstack;
  }

  // Matrices are row-major and contiguous, so each stacked block is one
  // contiguous range: stack/unstack are single bulk copies per matrix.
  std::vector<Matrix<T>> As, Bs;
  As.reserve(batch);
  Bs.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    Matrix<T> a(m, k), bb(k, n);
    std::copy_n(Astack.data() + b * m * k, m * k, a.data());
    std::copy_n(Bstack.data() + b * k * n, k * n, bb.data());
    As.push_back(std::move(a));
    Bs.push_back(std::move(bb));
  }
  const auto result = kami_batched_gemm<T>(dev, As, Bs, algo, opt);

  Matrix<T> Cstack(batch * m, n);
  for (std::size_t b = 0; b < batch; ++b)
    std::copy_n(result.C[b].data(), m * n, Cstack.data() + b * m * n);
  return Cstack;
}

}  // namespace kami::core
