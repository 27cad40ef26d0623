// The comparator kernels: numerical correctness (they are real simulated
// algorithms, not stubs) and the cost structure the paper attributes to each.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "../testing/expect.hpp"
#include "baselines/cublas_like.hpp"
#include "core/batched.hpp"
#include "baselines/cublasdx_like.hpp"
#include "baselines/cutlass_like.hpp"
#include "baselines/magma_like.hpp"
#include "baselines/reference.hpp"
#include "baselines/syclbench_like.hpp"
#include "core/kami.hpp"
#include "sim/throughput.hpp"

namespace kami::baselines {
namespace {

using kami::testing::bits_equal;
using kami::testing::expect_profile_identical;

const sim::DeviceSpec& nv() { return sim::gh200(); }

using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;  // m, n, k

/// `count` seeded shapes with each dim in [lo, hi] and no dim a multiple of
/// 16 — so none is a multiple of any CUTLASS tile edge, and k is never a
/// multiple of the 16-wide k-step. m is rounded to a multiple of `m_mult`
/// (the warp count, for kernels that split m evenly over warps).
std::vector<Shape> ragged_shapes(std::uint64_t seed, int count, std::size_t lo,
                                 std::size_t hi, std::size_t m_mult = 1) {
  Rng rng(seed);
  auto draw = [&](std::size_t mult) {
    for (;;) {
      const std::size_t v = (lo + rng.uniform_index(hi - lo + 1)) / mult * mult;
      if (v >= lo && v % 16 != 0) return v;
    }
  };
  std::vector<Shape> out;
  for (int i = 0; i < count; ++i) {
    const std::size_t m = draw(m_mult), n = draw(1), k = draw(1);
    out.emplace_back(m, n, k);
  }
  return out;
}

/// Runs `f(T{})` for each of the six storage precisions.
template <typename F>
void for_each_precision(F&& f) {
  f(double{});
  f(float{});
  f(tf32_t{});
  f(fp16_t{});
  f(bf16_t{});
  f(fp8_e4m3_t{});
}

/// One baseline input, checked both ways: the Full C equals reference_gemm
/// bit for bit, and the Full profile equals the TimingOnly one.
template <Scalar T, typename Gemm>
void expect_exact_and_timing_equal(const Shape& shape, std::uint64_t seed, Gemm&& gemm) {
  const auto [m, n, k] = shape;
  SCOPED_TRACE(std::string(precision_name(num_traits<T>::precision)) + " " +
               std::to_string(m) + "x" + std::to_string(n) + "x" + std::to_string(k));
  Rng rng(seed);
  const auto A = random_matrix<T>(m, k, rng);
  const auto B = random_matrix<T>(k, n, rng);
  const auto full = gemm(A, B, sim::ExecMode::Full);
  ASSERT_TRUE(full.feasible) << full.note;
  EXPECT_TRUE(bits_equal(full.C, reference_gemm(A, B)));
  expect_profile_identical(full.profile, gemm(A, B, sim::ExecMode::TimingOnly).profile);
}

// ---------------------------------------------------------------------------
// cuBLASDx-like
// ---------------------------------------------------------------------------

const auto cublasdx_on_gh200 = [](const auto& A, const auto& B, sim::ExecMode mode) {
  return cublasdx_gemm(nv(), A, B, 4, false, mode);
};

TEST(CublasdxLike, MatchesReferenceBitwiseFp16) {
  for (std::size_t n : {16u, 32u, 64u, 128u})
    expect_exact_and_timing_equal<fp16_t>({n, n, n}, n, cublasdx_on_gh200);
}

TEST(CublasdxLike, MatchesReferenceBitwiseFp64) {
  expect_exact_and_timing_equal<double>({64, 64, 64}, 9, cublasdx_on_gh200);
}

TEST(CublasdxLike, MatchesReferenceBitwiseOnRaggedShapesEveryPrecision) {
  // Ragged n and k (partial 32-column B chunks, a partial last k-step) in
  // all six precisions. m stays a multiple of the 4 warps and every shape
  // keeps the per-warp accumulator far inside the register file, so the
  // warp count never escalates: escalation builds the block with the
  // unescalated count and computes only part of C, a known defect that
  // needs its own test.
  std::uint64_t seed = 300;
  for (const auto& shape : ragged_shapes(31, 4, 4, 68, 4))
    for_each_precision([&](auto tag) {
      using T = decltype(tag);
      expect_exact_and_timing_equal<T>(shape, ++seed, cublasdx_on_gh200);
    });
}

TEST(CublasdxLike, Fp64Order98IsTheSharedMemoryCeiling) {
  // Fig 3's caption: cuBLASDx "could not be larger [than 98] due to the
  // limitation of shared memory capacity" — 3 * n^2 * 8 B vs 227 KB.
  Rng rng(1);
  const auto a96 = random_matrix<double>(96, 96, rng);
  EXPECT_TRUE(cublasdx_gemm(nv(), a96, a96).feasible);
  const auto a104 = random_matrix<double>(104, 104, rng);
  EXPECT_FALSE(cublasdx_gemm(nv(), a104, a104).feasible);
}

TEST(CublasdxLike, Order192Fp16InfeasibleOn5090) {
  Rng rng(2);
  const auto a = random_matrix<fp16_t>(192, 192, rng);
  EXPECT_FALSE(cublasdx_gemm(sim::rtx5090(), a, a).feasible);
  EXPECT_TRUE(cublasdx_gemm(nv(), a, a).feasible);  // 221 KB < 227 KB
}

TEST(CublasdxLike, UsesFarMoreSharedMemoryThanKami) {
  Rng rng(3);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  const auto base = cublasdx_gemm(nv(), A, B);
  const auto kami = kami::gemm(Algo::OneD, nv(), A, B);
  // §5.6.1: 27 KB (cuBLASDx) vs 2-8 KB (KAMI) at 64x64 FP16.
  EXPECT_GT(base.profile.smem_bytes, 20u * 1024u);
  EXPECT_LT(kami.profile.smem_bytes, 8u * 1024u);
}

TEST(CublasdxLike, KamiOutperformsAtBlockLevel) {
  // The paper's headline comparison (Fig 8): at block level KAMI-1D beats
  // the smem-staged pipeline.
  for (std::size_t n : {16u, 32u, 64u, 128u}) {
    Rng rng(n + 100);
    const auto A = random_matrix<fp16_t>(n, n, rng);
    const auto B = random_matrix<fp16_t>(n, n, rng);
    const auto base = cublasdx_gemm(nv(), A, B);
    const auto kami = kami::gemm(Algo::OneD, nv(), A, B);
    const double t_base = sim::throughput_tflops(nv(), base.profile, 16384);
    const double t_kami = sim::throughput_tflops(nv(), kami.profile, 16384);
    EXPECT_GT(t_kami, t_base) << "order " << n;
  }
}

// ---------------------------------------------------------------------------
// CUTLASS-like
// ---------------------------------------------------------------------------

const auto cutlass_on_gh200 = [](const auto& A, const auto& B, sim::ExecMode mode) {
  return cutlass_gemm(nv(), A, B, false, nullptr, mode);
};

TEST(CutlassLike, MatchesReferenceBitwiseFp16) {
  for (std::size_t n : {16u, 64u, 128u})
    expect_exact_and_timing_equal<fp16_t>({n, n, n}, n + 7, cutlass_on_gh200);
}

TEST(CutlassLike, MatchesReferenceBitwiseOnPaddedShapesEveryPrecision) {
  // m, n and k off every tile edge: partial tiles in all three dims, more
  // than one tile along m or n, and a padded last k-step — the host multiplies
  // only the valid window of each padded warp tile (Warp::mma_padded), so
  // this pins that skipping the padding changes no bit and no cycle.
  std::uint64_t seed = 400;
  for (const auto& shape : ragged_shapes(37, 4, 1, 150))
    for_each_precision([&](auto tag) {
      using T = decltype(tag);
      expect_exact_and_timing_equal<T>(shape, ++seed, cutlass_on_gh200);
    });
}

TEST(CutlassLike, MultiTileProblemsSweepTiles) {
  Rng rng(11);
  const auto A = random_matrix<fp8_e4m3_t>(256, 256, rng);
  const auto B = random_matrix<fp8_e4m3_t>(256, 256, rng);
  const auto r = cutlass_gemm(nv(), A, B);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(bits_equal(r.C, reference_gemm(A, B)));
}

TEST(CutlassLike, PaddingWasteDominatesSmallSizes) {
  Rng rng(12);
  const auto A = random_matrix<fp16_t>(16, 16, rng);
  const auto B = random_matrix<fp16_t>(16, 16, rng);
  const auto r = cutlass_gemm(nv(), A, B);
  // Issued tensor-core work is the full 128x128x32 tile: 1024x the useful
  // 2*16^3 flops.
  const double issued = r.profile.tc_busy * nv().ops_per_cycle_per_tc(Precision::FP16);
  EXPECT_NEAR(issued, 2.0 * 128 * 128 * 32, 1.0);
  // Padding factor (128/16)^2 * (32/16) = 128x wasted tensor-core work.
  EXPECT_NEAR(issued / r.profile.useful_flops, 128.0, 1.0);
}

TEST(CutlassLike, KamiSpeedupLargestAtSmallestSize) {
  // Fig 8's CUTLASS series: the speedup shrinks as the problem approaches
  // the native tile.
  auto ratio = [&](std::size_t n) {
    Rng rng(n + 200);
    const auto A = random_matrix<fp16_t>(n, n, rng);
    const auto B = random_matrix<fp16_t>(n, n, rng);
    const auto base = cutlass_gemm(nv(), A, B);
    const auto kami = kami::gemm(Algo::OneD, nv(), A, B);
    return sim::throughput_tflops(nv(), kami.profile, 16384) /
           sim::throughput_tflops(nv(), base.profile, 16384);
  };
  const double r16 = ratio(16), r64 = ratio(64), r128 = ratio(128);
  EXPECT_GT(r16, r64);
  EXPECT_GT(r64, r128);
  // GH200-band speedups (§5.2.1: FP16 avg 4.5x, up to 10.3x); the paper's
  // 74x outlier is 5090-specific (see EXPERIMENTS.md).
  EXPECT_GT(r16, 4.0);
  EXPECT_GT(r128, 1.0);  // still ahead at the native tile size
}

// ---------------------------------------------------------------------------
// SYCL-Bench-like (Intel)
// ---------------------------------------------------------------------------

const auto syclbench_on_max1100 = [](const auto& A, const auto& B, sim::ExecMode mode) {
  return syclbench_gemm(sim::intel_max1100(), A, B, 4, false, mode);
};

TEST(SyclBenchLike, MatchesReferenceBitwise) {
  expect_exact_and_timing_equal<fp16_t>({64, 64, 64}, 13, syclbench_on_max1100);
}

TEST(SyclBenchLike, MatchesReferenceBitwiseOnRaggedShapesEveryPrecision) {
  // Ragged n and k (a partial last 16-wide k-step) in all six precisions;
  // m stays a multiple of the 4 work-group rows the kernel splits it into.
  std::uint64_t seed = 500;
  for (const auto& shape : ragged_shapes(41, 4, 4, 68, 4))
    for_each_precision([&](auto tag) {
      using T = decltype(tag);
      expect_exact_and_timing_equal<T>(shape, ++seed, syclbench_on_max1100);
    });
}

TEST(SyclBenchLike, NeverTouchesTensorCores) {
  Rng rng(14);
  const auto A = random_matrix<fp16_t>(32, 32, rng);
  const auto B = random_matrix<fp16_t>(32, 32, rng);
  const auto r = syclbench_gemm(sim::intel_max1100(), A, B);
  EXPECT_DOUBLE_EQ(r.profile.tc_busy, 0.0);
  EXPECT_GT(r.profile.vector_busy, 0.0);
}

TEST(SyclBenchLike, KamiSeveralTimesFasterOnIntel) {
  // §5.2.3: KAMI-1D averages ~5x over SYCL-Bench on the Max 1100.
  Rng rng(15);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  const auto& dev = sim::intel_max1100();
  const auto base = syclbench_gemm(dev, A, B);
  const auto kami = kami::gemm(Algo::OneD, dev, A, B);
  const double ratio = sim::throughput_tflops(dev, kami.profile, 16384) /
                       sim::throughput_tflops(dev, base.profile, 16384);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 20.0);
}

// ---------------------------------------------------------------------------
// cuBLAS-like host drivers
// ---------------------------------------------------------------------------

TEST(CublasLike, LargeGemmApproachesRoofline) {
  const auto perf = cublas_square_gemm_perf<double>(nv(), 8192);
  ASSERT_TRUE(perf.feasible);
  EXPECT_GT(perf.tflops, 0.55 * nv().peak_fp64_tflops);
}

TEST(CublasLike, SmallGemmCollapses) {
  // Fig 3: "when m = 64, the performance drops to only 28 GFLOPS".
  const auto perf = cublas_square_gemm_perf<double>(nv(), 64);
  ASSERT_TRUE(perf.feasible);
  EXPECT_LT(perf.tflops, 0.5);  // well under 1% of peak
}

TEST(CublasLike, MonotonePerformanceClimb) {
  double prev = 0.0;
  for (std::size_t n : {64u, 256u, 1024u, 4096u}) {
    const auto perf = cublas_square_gemm_perf<double>(nv(), n);
    EXPECT_GT(perf.tflops, prev) << n;
    prev = perf.tflops;
  }
}

TEST(BatchedBaselines, KamiBeatsMagmaBeatsCublas) {
  // Fig 12's ordering at FP64, batch 1000.
  for (std::size_t n : {16u, 32u, 64u}) {
    const auto cublas = cublas_batched_fp64_perf(nv(), n, 1000);
    const auto magma = magma_batched_fp64_perf(nv(), n, 1000);
    const auto kami = core::kami_batched_perf<double>(nv(), n, n, n, 1000);
    ASSERT_TRUE(cublas.feasible && magma.feasible);
    EXPECT_GT(magma.tflops, cublas.tflops) << n;
    EXPECT_GT(kami.tflops, magma.tflops) << n;
  }
}

TEST(BatchedBaselines, LargerBatchesAmortizeSetup) {
  // §5.4: the speedups over both libraries shrink from batch 1000 to 10000
  // because their host setup amortizes.
  const auto small = cublas_batched_fp64_perf(nv(), 32, 1000);
  const auto large = cublas_batched_fp64_perf(nv(), 32, 10000);
  EXPECT_GT(large.tflops, small.tflops);
}

}  // namespace
}  // namespace kami::baselines
