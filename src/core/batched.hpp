// Batched GEMM driver (§5.4).
//
// KAMI's batched interface mirrors cuBLAS/MAGMA batched GEMM: a vector of
// independent small products, one thread block per matrix, each block
// running the KAMI block-level kernel with its global loads/stores charged
// (in the batched setting every matrix really is fetched from global
// memory, which is why §5.4's absolute numbers sit below the block-level
// ones). Matrix shapes may vary within a batch.
//
// Entry points:
//  * kami_batched_gemm, kami_gemm_strided_batched — compute every product
//    (tests, applications), simulating each distinct shape once;
//  * kami_batched_perf — cost extrapolation for large batches: one block
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

namespace detail {

/// What every entry of one (m, n, k) shares: the cached block profile and
/// the 3D layer split the numeric kernel replicates (1D/2D reduce in one
/// chain, layers = 1).
struct BatchShape {
  sim::KernelProfile profile;
  std::size_t layers = 1;
};

/// Batched drivers need a cycle profile, so they run only in a timed mode.
inline void require_timed_mode(sim::ExecMode mode) {
  KAMI_REQUIRE(mode != sim::ExecMode::NumericsOnly,
               std::string("batched GEMM needs a timed mode (full or timing_only), got ") +
                   sim::exec_mode_name(mode));
}

/// One cached TimingOnly simulation (global I/O charged) plus the layer
/// count of its plan's association. Throws the planner's PreconditionError
/// for infeasible shapes.
template <Scalar T>
BatchShape batch_shape(const sim::DeviceSpec& dev, Algo algo, std::size_t m,
                       std::size_t n, std::size_t k, const GemmOptions& opt) {
  const CachedProfile prof = timing_profile<T>(ProfileCache::global(), algo, dev, m, n, k, opt);
  return {prof.profile, numeric_layers(algo, prof.warps)};
}

}  // namespace detail

/// Batched execution; shapes may vary per entry. Each distinct shape is
/// simulated once, in TimingOnly through the profile cache, and Full then
/// runs every entry's values through the numeric kernel. C, seconds and
/// tflops are bit-identical to a per-entry Full loop; TimingOnly returns
/// zero-filled C with the same seconds and tflops. NumericsOnly has no
/// profile to time and is refused. The result holds no per-entry phases,
/// so GemmOptions::record_regions does not change what runs.
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
  detail::require_timed_mode(opt.mode);
  opt.charge_global_io = true;

  // Every entry's shape is checked before anything is simulated, so the
  // first error is the same in every mode: the lowest malformed entry, then
  // the first infeasible shape in first-appearance order.
  for (std::size_t i = 0; i < As.size(); ++i)
    KAMI_REQUIRE(Bs[i].rows() == As[i].cols(),
                 "inner dimensions must agree at batch entry " + std::to_string(i) +
                     ": A is " + std::to_string(As[i].rows()) + "x" +
                     std::to_string(As[i].cols()) + " but B is " +
                     std::to_string(Bs[i].rows()) + "x" + std::to_string(Bs[i].cols()));
  using ShapeKey = std::array<std::size_t, 3>;
  const auto key_of = [&](std::size_t i) {
    return ShapeKey{As[i].rows(), Bs[i].cols(), As[i].cols()};
  };
  std::map<ShapeKey, detail::BatchShape> shapes;
  for (std::size_t i = 0; i < As.size(); ++i) {
    const ShapeKey key = key_of(i);
    if (!shapes.contains(key))
      shapes.emplace(key, detail::batch_shape<T>(dev, algo, key[0], key[1], key[2], opt));
  }

  // Completion time: blocks spread round-robin over SMs (the same wave model
  // as kami_batched_perf — for `batch` identical shapes the most-loaded SM
  // carries ceil(batch / num_sms) blocks, i.e. one interval per wave). The
  // batch can never finish before the longest single block's steady interval,
  // so small batches do not divide one block's time across idle SMs.
  BatchedResult<T> out;
  out.C.reserve(As.size());
  std::vector<double> sm_load(static_cast<std::size_t>(dev.num_sms), 0.0);
  double completion = 0.0;
  double total_flops = 0.0;
  for (std::size_t i = 0; i < As.size(); ++i) {
    const auto [m, n, k] = key_of(i);
    const detail::BatchShape& shape = shapes.at({m, n, k});
    Matrix<T> C(m, n);
    if (sim::mode_computes(opt.mode))
      numeric_gemm_into(As[i].data(), Bs[i].data(), C.data(), m, n, k, shape.layers);
    out.C.push_back(std::move(C));
    total_flops += shape.profile.useful_flops;
    const double interval = sim::steady_interval_cycles(dev, shape.profile);
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
/// Every block shares one shape, so one cached simulation covers the batch
/// and the numeric kernel runs on the stacked storage in place: row-major
/// contiguous blocks need no per-block copies. Modes as kami_batched_gemm.
template <Scalar T>
Matrix<T> kami_gemm_strided_batched(const sim::DeviceSpec& dev, const Matrix<T>& Astack,
                                    const Matrix<T>& Bstack, std::size_t batch,
                                    Algo algo = Algo::OneD, GemmOptions opt = {}) {
  KAMI_REQUIRE(batch >= 1, "strided batch must be non-empty, got batch=0 (stacked "
                           "operands cannot define a block shape)");
  detail::require_timed_mode(opt.mode);
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
  opt.charge_global_io = true;
  const detail::BatchShape shape = detail::batch_shape<T>(dev, algo, m, n, k, opt);

  Matrix<T> Cstack(batch * m, n);
  if (sim::mode_computes(opt.mode))
    for (std::size_t b = 0; b < batch; ++b)
      numeric_gemm_into(Astack.data() + b * m * k, Bstack.data() + b * k * n,
                        Cstack.data() + b * m * n, m, n, k, shape.layers);
  return Cstack;
}

}  // namespace kami::core
