#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/register_file.hpp"

namespace kami::core {
namespace {

const sim::DeviceSpec& dev() { return sim::gh200(); }

TEST(Planner, SmallSizesNeedNoSpill) {
  for (std::size_t n : {16u, 32u, 64u}) {
    const auto plan = plan_gemm(Algo::OneD, dev(), Precision::FP16, n, n, n, {});
    EXPECT_DOUBLE_EQ(plan.smem_ratio, 0.0) << n;
    EXPECT_EQ(plan.p, 4) << n;
  }
}

TEST(Planner, Order128Fp16RequiresSpilling) {
  // §4.7 / Fig 10: at order 128 registers alone cannot hold A, B, C.
  const auto plan = plan_gemm(Algo::OneD, dev(), Precision::FP16, 128, 128, 128, {});
  EXPECT_EQ(plan.p, 4);
  EXPECT_GT(plan.smem_ratio, 0.0);
  EXPECT_LE(plan.reg_demand_bytes, dev().reg_bytes_per_warp());
}

TEST(Planner, ExplicitInfeasibleRatioThrows) {
  GemmOptions opt;
  opt.warps = 4;
  opt.smem_ratio = 0.0;  // order 128 FP16 cannot fit registers alone
  EXPECT_THROW((void)plan_gemm(Algo::OneD, dev(), Precision::FP16, 128, 128, 128, opt),
               sim::RegisterOverflow);
}

TEST(Planner, InfeasibleMessageNamesAlgoAndShape) {
  // 3D FP64 at order 128 exceeds GH200's register file at every warp cube
  // and spill ratio; the rejection names the request so callers (and chaos
  // logs) can reproduce it.
  try {
    (void)plan_gemm(Algo::ThreeD, dev(), Precision::FP64, 128, 128, 128, {});
    FAIL() << "3D FP64 128^3 must be infeasible on GH200";
  } catch (const sim::RegisterOverflow& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("algo=3d"), std::string::npos) << what;
    EXPECT_NE(what.find("m=128"), std::string::npos) << what;
  }
}

TEST(Planner, Order192EscalatesWarpCount) {
  // C alone (48x192 FP32 accum) exceeds one warp's file at p = 4.
  const auto plan = plan_gemm(Algo::OneD, dev(), Precision::FP16, 192, 192, 192, {});
  EXPECT_GT(plan.p, 4);
}

TEST(Planner, Fp64UsesWiderElements) {
  const auto h = plan_gemm(Algo::OneD, dev(), Precision::FP16, 64, 64, 64, {});
  const auto d = plan_gemm(Algo::OneD, dev(), Precision::FP64, 64, 64, 64, {});
  EXPECT_GT(d.reg_demand_bytes, h.reg_demand_bytes);
}

TEST(Planner, TwoDChoosesPerfectSquare) {
  const auto plan = plan_gemm(Algo::TwoD, dev(), Precision::FP16, 64, 64, 64, {});
  EXPECT_EQ(plan.p, 4);
  EXPECT_EQ(plan.grid, 2);
}

TEST(Planner, ThreeDChoosesPerfectCube) {
  const auto plan = plan_gemm(Algo::ThreeD, dev(), Precision::FP16, 64, 64, 64, {});
  EXPECT_EQ(plan.p, 8);
  EXPECT_EQ(plan.grid, 2);
}

TEST(Planner, RespectsExplicitWarpCount) {
  GemmOptions opt;
  opt.warps = 8;
  const auto plan = plan_gemm(Algo::OneD, dev(), Precision::FP16, 64, 64, 64, opt);
  EXPECT_EQ(plan.p, 8);
}

TEST(Planner, IndivisibleShapeRejected) {
  GemmOptions opt;
  opt.warps = 4;
  EXPECT_THROW((void)plan_gemm(Algo::OneD, dev(), Precision::FP16, 30, 30, 30, opt),
               PreconditionError);
}

TEST(Planner, UnsupportedPrecisionRejected) {
  EXPECT_THROW(
      (void)plan_gemm(Algo::OneD, sim::rtx5090(), Precision::FP64, 64, 64, 64, {}),
      PreconditionError);
}

TEST(Planner, DemandIncludesAccumulatorAtWideWidth) {
  const auto plan = plan_gemm(Algo::OneD, dev(), Precision::FP16, 64, 64, 64, {});
  // A 2 KB + B 2 KB + C 4 KB + BRecv slice (16x64x2 = 2 KB) = 10 KB.
  EXPECT_EQ(plan.reg_demand_bytes, 10u * 1024u);
}

TEST(Planner, SliceWidthDividesK) {
  for (std::size_t n : {16u, 48u, 96u, 192u}) {
    const auto plan = plan_gemm(Algo::OneD, dev(), Precision::FP16, n, n, n, {});
    EXPECT_EQ(n % plan.slice_w, 0u) << n;
    EXPECT_LE(plan.slice_w, 16u);
  }
}

TEST(Planner, OneDSupportsThinK) {
  // Low-rank shapes (§5.3): k = 16 with any warp count that divides m.
  const auto plan = plan_gemm(Algo::OneD, dev(), Precision::FP16, 128, 128, 16, {});
  EXPECT_GE(plan.p, 4);
  EXPECT_EQ(plan.slice_w, 16u);
}

}  // namespace
}  // namespace kami::core
