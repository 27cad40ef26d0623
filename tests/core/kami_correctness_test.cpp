// Numerical correctness of KAMI-1D/2D/3D against the reference rounding
// model. 1D and 2D cover k in sequential stage order and must match the
// reference bit-for-bit; 3D re-associates the reduction across layers and is
// compared with a precision-dependent tolerance. The C checked is the one
// the schedule computes on the simulator's element data plane, and the
// front door's Full C must equal it bit for bit.
#include <gtest/gtest.h>

#include <tuple>

#include "../testing/expect.hpp"
#include "baselines/reference.hpp"
#include "core/kami.hpp"
#include "verify/data_plane.hpp"

namespace kami {
namespace {

const sim::DeviceSpec& dev() { return sim::gh200(); }

/// The data plane's C for (algo, A, B, opt), after checking that the front
/// door's Full C equals it.
template <Scalar T>
Matrix<T> schedule_product(Algo algo, const Matrix<T>& A, const Matrix<T>& B,
                           const GemmOptions& opt) {
  auto data = verify::data_plane_gemm(algo, dev(), A, B, opt);
  EXPECT_TRUE(kami::testing::bits_equal(gemm(algo, dev(), A, B, opt).C, data.C))
      << algo_name(algo) << ": the front door's Full C differs from the data plane's";
  return std::move(data.C);
}

template <Scalar T>
void expect_bitwise(Algo algo, std::size_t m, std::size_t n, std::size_t k,
                    const GemmOptions& opt = {}) {
  Rng rng(m * 1000003 + n * 1009 + k);
  const auto A = random_matrix<T>(m, k, rng);
  const auto B = random_matrix<T>(k, n, rng);
  const auto C = schedule_product(algo, A, B, opt);
  const auto ref = baselines::reference_gemm(A, B);
  EXPECT_DOUBLE_EQ(max_abs_diff(C, ref), 0.0)
      << algo_name(algo) << " m=" << m << " n=" << n << " k=" << k;
}

template <Scalar T>
void expect_close(Algo algo, std::size_t m, std::size_t n, std::size_t k, double rel_tol,
                  const GemmOptions& opt = {}) {
  Rng rng(m * 7919 + n * 104729 + k);
  const auto A = random_matrix<T>(m, k, rng);
  const auto B = random_matrix<T>(k, n, rng);
  const auto C = schedule_product(algo, A, B, opt);
  const auto ref = baselines::reference_gemm_fp64(A, B);
  // Scale: |C(i,j)| <= k for inputs in [-1, 1).
  const double scale = static_cast<double>(k);
  EXPECT_LE(max_abs_diff(C, ref), rel_tol * scale)
      << algo_name(algo) << " m=" << m << " n=" << n << " k=" << k;
}

// ---------------------------------------------------------------------------
// Square sweeps (the paper's Fig 8 sizes)
// ---------------------------------------------------------------------------

class SquareSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SquareSizes, OneDFp16MatchesReferenceBitwise) {
  expect_bitwise<fp16_t>(Algo::OneD, GetParam(), GetParam(), GetParam());
}

TEST_P(SquareSizes, TwoDFp16MatchesReferenceBitwise) {
  expect_bitwise<fp16_t>(Algo::TwoD, GetParam(), GetParam(), GetParam());
}

TEST_P(SquareSizes, ThreeDFp16CloseToReference) {
  expect_close<fp16_t>(Algo::ThreeD, GetParam(), GetParam(), GetParam(), 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Fig8Orders, SquareSizes,
                         ::testing::Values(16, 32, 48, 64, 96, 128, 192));

// FP64's Fig 8(a) sweep stops at order 128 (§5.1); at 128 the wide elements
// force heavy spilling (1D/2D) and KAMI-3D falls back to n-chunked output.
class SquareSizesFp64 : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SquareSizesFp64, OneDFp64MatchesReferenceBitwise) {
  expect_bitwise<double>(Algo::OneD, GetParam(), GetParam(), GetParam());
}

TEST_P(SquareSizesFp64, TwoDFp64MatchesReferenceBitwise) {
  expect_bitwise<double>(Algo::TwoD, GetParam(), GetParam(), GetParam());
}

TEST_P(SquareSizesFp64, ThreeDFp64CloseToReference) {
  if (GetParam() >= 128) {
    // 3*128^2 FP64 operands exceed GH200's combined on-chip capacity in the
    // 3D layout (A + B spills alone are 256 KiB vs 227 KiB of shared
    // memory); the planner reports that honestly. See DESIGN.md.
    EXPECT_THROW(expect_close<double>(Algo::ThreeD, 128, 128, 128, 1e-12),
                 sim::RegisterOverflow);
    return;
  }
  expect_close<double>(Algo::ThreeD, GetParam(), GetParam(), GetParam(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Fig8aOrders, SquareSizesFp64,
                         ::testing::Values(16, 32, 64, 128));

// ---------------------------------------------------------------------------
// Other precisions (TF32, FP8, BF16, FP32)
// ---------------------------------------------------------------------------

class PrecisionSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrecisionSizes, OneDTf32Bitwise) {
  expect_bitwise<tf32_t>(Algo::OneD, GetParam(), GetParam(), GetParam());
}

TEST_P(PrecisionSizes, OneDFp8Bitwise) {
  expect_bitwise<fp8_e4m3_t>(Algo::OneD, GetParam(), GetParam(), GetParam());
}

TEST_P(PrecisionSizes, OneDBf16Bitwise) {
  expect_bitwise<bf16_t>(Algo::OneD, GetParam(), GetParam(), GetParam());
}

TEST_P(PrecisionSizes, TwoDTf32Bitwise) {
  expect_bitwise<tf32_t>(Algo::TwoD, GetParam(), GetParam(), GetParam());
}

TEST_P(PrecisionSizes, ThreeDFp8Close) {
  expect_close<fp8_e4m3_t>(Algo::ThreeD, GetParam(), GetParam(), GetParam(), 0.08);
}

INSTANTIATE_TEST_SUITE_P(SmallOrders, PrecisionSizes, ::testing::Values(16, 32, 64));

// ---------------------------------------------------------------------------
// Rectangular and low-rank shapes
// ---------------------------------------------------------------------------

struct Shape {
  std::size_t m, n, k;
};

class RectShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(RectShapes, OneDFp16Bitwise) {
  const auto [m, n, k] = GetParam();
  expect_bitwise<fp16_t>(Algo::OneD, m, n, k);
}

TEST_P(RectShapes, TwoDFp16Bitwise) {
  const auto [m, n, k] = GetParam();
  expect_bitwise<fp16_t>(Algo::TwoD, m, n, k);
}

TEST_P(RectShapes, ThreeDFp16Close) {
  const auto [m, n, k] = GetParam();
  expect_close<fp16_t>(Algo::ThreeD, m, n, k, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(LowRankAndTall, RectShapes,
                         ::testing::Values(Shape{64, 64, 16},   // low-rank k=16
                                           Shape{128, 128, 32},  // low-rank k=32
                                           Shape{32, 128, 64},   // wide
                                           Shape{128, 32, 64},   // tall
                                           Shape{16, 192, 32},
                                           Shape{96, 48, 96}));

// ---------------------------------------------------------------------------
// Spilling configurations (§4.7) must not change results
// ---------------------------------------------------------------------------

class SpillRatios : public ::testing::TestWithParam<double> {};

TEST_P(SpillRatios, OneDResultsIndependentOfRatio) {
  GemmOptions opt;
  opt.warps = 4;
  opt.smem_ratio = GetParam();
  expect_bitwise<fp16_t>(Algo::OneD, 64, 64, 64, opt);
}

TEST_P(SpillRatios, TwoDResultsIndependentOfRatio) {
  GemmOptions opt;
  opt.warps = 4;
  opt.smem_ratio = GetParam();
  expect_bitwise<fp16_t>(Algo::TwoD, 64, 64, 64, opt);
}

TEST_P(SpillRatios, ThreeDResultsIndependentOfRatio) {
  GemmOptions opt;
  opt.warps = 8;
  opt.smem_ratio = GetParam();
  expect_close<fp16_t>(Algo::ThreeD, 64, 64, 64, 1e-2, opt);
}

INSTANTIATE_TEST_SUITE_P(Fig10Ratios, SpillRatios, ::testing::Values(0.0, 0.25, 0.5, 0.75));

// ---------------------------------------------------------------------------
// Warp-count variants
// ---------------------------------------------------------------------------

TEST(KamiWarpCounts, OneDWithMoreWarps) {
  for (int p : {2, 4, 8, 16}) {
    GemmOptions opt;
    opt.warps = p;
    expect_bitwise<fp16_t>(Algo::OneD, 64, 64, 64, opt);
  }
}

TEST(KamiWarpCounts, TwoDWithSixteenWarps) {
  GemmOptions opt;
  opt.warps = 16;
  expect_bitwise<fp16_t>(Algo::TwoD, 64, 64, 64, opt);
}

TEST(KamiChunked, ThreeDFp16Order192UsesNChunkFallback) {
  // Without chunking, the 96x96 FP32 accumulator block (36.8 KiB) exceeds
  // one warp's register file; the planner's n-chunked plan makes 3D at
  // order 192 feasible (Fig 8(b)'s largest FP16 size).
  expect_close<fp16_t>(Algo::ThreeD, 192, 192, 192, 1e-2);
}

TEST(KamiWarpCounts, ThreeDWithTwentySevenWarps) {
  GemmOptions opt;
  opt.warps = 27;
  expect_close<fp16_t>(Algo::ThreeD, 108, 108, 108, 1e-2, opt);
}

// ---------------------------------------------------------------------------
// Charged-global-I/O mode changes cost, never values
// ---------------------------------------------------------------------------

TEST(KamiIo, ChargedIoSameValuesMoreCycles) {
  Rng rng(77);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  GemmOptions resident;
  GemmOptions charged;
  charged.charge_global_io = true;
  const auto r0 = gemm(Algo::OneD, dev(), A, B, resident);
  const auto r1 = gemm(Algo::OneD, dev(), A, B, charged);
  EXPECT_DOUBLE_EQ(max_abs_diff(r0.C, r1.C), 0.0);
  EXPECT_GT(r1.profile.latency, r0.profile.latency);
  EXPECT_GT(r1.profile.gmem_busy, 0.0);
  EXPECT_DOUBLE_EQ(r0.profile.gmem_busy, 0.0);
}

// ---------------------------------------------------------------------------
// API validation
// ---------------------------------------------------------------------------

TEST(KamiApi, MismatchedInnerDimensionRejected) {
  Rng rng(1);
  const auto A = random_matrix<fp16_t>(32, 32, rng);
  const auto B = random_matrix<fp16_t>(16, 32, rng);
  EXPECT_THROW((void)gemm(Algo::OneD, dev(), A, B), PreconditionError);
}

TEST(KamiApi, ReportsChosenPlan) {
  Rng rng(2);
  const auto A = random_matrix<fp16_t>(128, 128, rng);
  const auto B = random_matrix<fp16_t>(128, 128, rng);
  const auto r = gemm(Algo::OneD, dev(), A, B);
  EXPECT_EQ(r.warps, 4);
  EXPECT_GT(r.smem_ratio, 0.0);  // order 128 must spill (§4.7)
  EXPECT_GT(r.profile.latency, 0.0);
  EXPECT_GT(r.profile.tc_busy, 0.0);
}

}  // namespace
}  // namespace kami
