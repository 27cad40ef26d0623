// Cross-module integration: the analytic model against the simulator across
// a parameter sweep, kernel traffic volumes against the formulas, and
// end-to-end pipelines that exercise public API combinations the way
// applications do.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "baselines/reference.hpp"
#include "core/autotune.hpp"
#include "core/batched.hpp"
#include "core/kami.hpp"
#include "model/cost_model.hpp"
#include "obs/metrics.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/spmm.hpp"

namespace kami {
namespace {

const sim::DeviceSpec& dev() { return sim::gh200(); }

// ---------------------------------------------------------------------------
// Model vs simulator across a sweep (the Fig 15 claim, as a regression test)
// ---------------------------------------------------------------------------

class ModelVsSim : public ::testing::TestWithParam<std::tuple<Algo, std::size_t>> {};

TEST_P(ModelVsSim, SimulatedCommStaysWithinModelBand) {
  const auto [algo, n] = GetParam();
  const int warps = algo == Algo::ThreeD ? 8 : 4;
  GemmOptions opt;
  opt.warps = warps;
  opt.smem_ratio = 0.0;
  Rng rng(n);
  const auto A = random_matrix<fp16_t>(n, n, rng);
  const auto B = random_matrix<fp16_t>(n, n, rng);
  const auto r = gemm(algo, dev(), A, B, opt);

  auto params = model::Params::from_device(dev(), Precision::FP16, n, n, n, warps);
  model::Cost cost;
  switch (algo) {
    case Algo::OneD: cost = model::cost_1d(params); break;
    case Algo::TwoD: cost = model::cost_2d(params); break;
    case Algo::ThreeD: cost = model::cost_3d(params); break;
  }
  // Measured smem occupancy = model's data terms + bounded overheads
  // (transactions, 3D reduction). Assert a band of [0.5x, 4x].
  const double model_data = cost.comm_cycles - params.L_sm * cost.stages;
  EXPECT_GE(r.profile.smem_busy, 0.5 * model_data) << algo_name(algo) << " n=" << n;
  EXPECT_LE(r.profile.smem_busy, 4.0 * model_data + 1000.0)
      << algo_name(algo) << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelVsSim,
    ::testing::Combine(::testing::Values(Algo::OneD, Algo::TwoD, Algo::ThreeD),
                       ::testing::Values(32, 64, 96)));

// ---------------------------------------------------------------------------
// Kernel traffic volumes against the paper's formulas
// ---------------------------------------------------------------------------

/// The counters one 64x64x64 FP16 call on 4 warps, with no spill, publishes
/// into a private registry.
std::map<std::string, double> kernel_counters(Algo algo, std::uint64_t seed) {
  GemmOptions opt;
  opt.warps = 4;
  opt.smem_ratio = 0.0;
  Rng rng(seed);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  obs::MetricRegistry reg;
  {
    const obs::ScopedMetricShard shard(reg);
    (void)gemm(algo, dev(), A, B, opt);
  }
  return reg.counter_values();
}

TEST(KernelVolumes, OneDMovesExactlyTheModelVolume) {
  const auto c = kernel_counters(Algo::OneD, 1);
  // Formula (1): writes = k*n*s_e; reads = (p-1) * that.
  const double kn_bytes = 64.0 * 64.0 * 2.0;
  EXPECT_DOUBLE_EQ(c.at("sim.smem.bytes_written"), kn_bytes);
  EXPECT_DOUBLE_EQ(c.at("sim.smem.bytes_read"), 3.0 * kn_bytes);
}

TEST(KernelVolumes, TwoDMovesBothOperands) {
  // Formula (5): writes = (mk + kn)*s_e.
  EXPECT_DOUBLE_EQ(kernel_counters(Algo::TwoD, 2).at("sim.smem.bytes_written"),
                   2.0 * 64 * 64 * 2);
}

TEST(KernelVolumes, MmaFlopsMatchIssuedWork) {
  // No padding at 64: the issued MMA flops equal 2mnk.
  EXPECT_DOUBLE_EQ(kernel_counters(Algo::OneD, 3).at("sim.mma.flops"), 2.0 * 64 * 64 * 64);
}

// ---------------------------------------------------------------------------
// End-to-end pipelines
// ---------------------------------------------------------------------------

TEST(EndToEnd, TuneThenBatchedPipeline) {
  // Tune once, then run a small batch with the winner's configuration.
  const auto tuned = core::autotune_gemm<double>(dev(), 32, 32, 32, 1000);
  Rng rng(5);
  std::vector<Matrix<double>> As, Bs;
  for (int i = 0; i < 4; ++i) {
    As.push_back(random_matrix<double>(32, 32, rng));
    Bs.push_back(random_matrix<double>(32, 32, rng));
  }
  GemmOptions opt;
  opt.warps = tuned.config.warps;
  opt.smem_ratio = tuned.config.smem_ratio;
  const auto batch = core::kami_batched_gemm<double>(dev(), As, Bs, tuned.config.algo, opt);
  for (std::size_t i = 0; i < As.size(); ++i)
    EXPECT_LE(max_abs_diff(batch.C[i], baselines::reference_gemm(As[i], Bs[i])), 1e-12);
}

TEST(EndToEnd, SparseDenseChain) {
  // SpGEMM produces a sparse product that then feeds an SpMM — the kind of
  // chained kernel use a block-sparse solver performs.
  Rng rng(6);
  const auto A = sparse::BlockSparseMatrix<fp16_t>::random(64, 64, 0.5, rng);
  const auto B = sparse::BlockSparseMatrix<fp16_t>::random(64, 64, 0.5, rng);
  const auto X = random_matrix<fp16_t>(64, 32, rng);

  const auto AB = sparse::spgemm_1d(dev(), A, B);
  const auto Y = sparse::spmm_1d(dev(), AB.C, X);

  const auto dense_ab = baselines::reference_gemm(A.to_dense(), B.to_dense());
  const auto expect = baselines::reference_gemm(dense_ab, X);
  EXPECT_DOUBLE_EQ(max_abs_diff(Y.C, expect), 0.0);
}

TEST(EndToEnd, CrossDeviceConsistency) {
  // The same operands give the same numerics on every device model (cycle
  // costs differ; values must not).
  Rng rng(7);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  GemmOptions opt;
  opt.warps = 4;
  const auto nv = gemm(Algo::OneD, sim::gh200(), A, B, opt);
  const auto amd = gemm(Algo::OneD, sim::amd7900xtx(), A, B, opt);
  const auto intel = gemm(Algo::OneD, sim::intel_max1100(), A, B, opt);
  EXPECT_DOUBLE_EQ(max_abs_diff(nv.C, amd.C), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(nv.C, intel.C), 0.0);
  EXPECT_NE(nv.profile.latency, intel.profile.latency);  // costs do differ
}

TEST(EndToEnd, ThroughputOrderingStableAcrossSeeds) {
  // Cycle counts depend on shapes, not on data: two different random
  // matrices of the same shape must produce identical profiles.
  GemmOptions opt;
  opt.warps = 4;
  opt.smem_ratio = 0.0;
  Rng r1(100), r2(200);
  const auto A1 = random_matrix<fp16_t>(64, 64, r1);
  const auto B1 = random_matrix<fp16_t>(64, 64, r1);
  const auto A2 = random_matrix<fp16_t>(64, 64, r2);
  const auto B2 = random_matrix<fp16_t>(64, 64, r2);
  const auto p1 = gemm(Algo::OneD, dev(), A1, B1, opt).profile;
  const auto p2 = gemm(Algo::OneD, dev(), A2, B2, opt).profile;
  EXPECT_DOUBLE_EQ(p1.latency, p2.latency);
  EXPECT_DOUBLE_EQ(p1.smem_busy, p2.smem_busy);
  EXPECT_DOUBLE_EQ(p1.tc_busy, p2.tc_busy);
}

}  // namespace
}  // namespace kami
