#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/reference.hpp"
#include "core/batched.hpp"
#include "core/lowrank.hpp"

namespace kami::core {
namespace {

const sim::DeviceSpec& dev() { return sim::gh200(); }

TEST(Batched, AllProductsMatchReference) {
  Rng rng(21);
  std::vector<Matrix<fp16_t>> As, Bs;
  for (int i = 0; i < 6; ++i) {
    As.push_back(random_matrix<fp16_t>(32, 32, rng));
    Bs.push_back(random_matrix<fp16_t>(32, 32, rng));
  }
  const auto r = kami_batched_gemm<fp16_t>(dev(), As, Bs);
  ASSERT_EQ(r.C.size(), As.size());
  for (std::size_t i = 0; i < As.size(); ++i)
    EXPECT_DOUBLE_EQ(max_abs_diff(r.C[i], baselines::reference_gemm(As[i], Bs[i])), 0.0);
}

TEST(Batched, SupportsMixedShapes) {
  // §5.4: "supports various matrix orders in a batch".
  Rng rng(22);
  std::vector<Matrix<fp16_t>> As, Bs;
  for (std::size_t n : {16u, 32u, 64u}) {
    As.push_back(random_matrix<fp16_t>(n, n, rng));
    Bs.push_back(random_matrix<fp16_t>(n, n, rng));
  }
  const auto r = kami_batched_gemm<fp16_t>(dev(), As, Bs);
  ASSERT_EQ(r.C.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.C[i].rows(), As[i].rows());
    EXPECT_DOUBLE_EQ(max_abs_diff(r.C[i], baselines::reference_gemm(As[i], Bs[i])), 0.0);
  }
}

TEST(Batched, MismatchedBatchListsRejected) {
  Rng rng(23);
  std::vector<Matrix<fp16_t>> As{random_matrix<fp16_t>(16, 16, rng)};
  std::vector<Matrix<fp16_t>> Bs;
  EXPECT_THROW((void)kami_batched_gemm<fp16_t>(dev(), As, Bs), PreconditionError);
}

// Every entry's inner dimension is checked before anything is simulated, so
// Full and TimingOnly report the same first error: the malformed entry 1,
// not the infeasible order-17 entry 3 behind it.
TEST(Batched, InnerDimensionCheckNamesTheEntryInEveryMode) {
  Rng rng(24);
  std::vector<Matrix<fp16_t>> As, Bs;
  const std::size_t a_shapes[][2] = {{32, 32}, {32, 32}, {32, 32}, {17, 17}};
  const std::size_t b_shapes[][2] = {{32, 32}, {16, 32}, {32, 32}, {17, 17}};
  for (std::size_t i = 0; i < 4; ++i) {
    As.push_back(random_matrix<fp16_t>(a_shapes[i][0], a_shapes[i][1], rng));
    Bs.push_back(random_matrix<fp16_t>(b_shapes[i][0], b_shapes[i][1], rng));
  }
  const auto first_error = [&](sim::ExecMode mode) {
    GemmOptions opt;
    opt.mode = mode;
    try {
      (void)kami_batched_gemm<fp16_t>(dev(), As, Bs, Algo::OneD, opt);
    } catch (const PreconditionError& e) {
      return std::string(e.what());
    }
    return std::string("(no exception)");
  };
  const std::string full = first_error(sim::ExecMode::Full);
  EXPECT_NE(full.find("batch entry 1: A is 32x32 but B is 16x32"), std::string::npos) << full;
  EXPECT_EQ(first_error(sim::ExecMode::TimingOnly), full);

  // Without the malformed entry, the order-17 infeasibility comes first, and
  // again both modes report it identically.
  As.erase(As.begin() + 1);
  Bs.erase(Bs.begin() + 1);
  const std::string infeasible = first_error(sim::ExecMode::Full);
  EXPECT_NE(infeasible, "(no exception)");
  EXPECT_EQ(infeasible.find("batch entry"), std::string::npos) << infeasible;
  EXPECT_EQ(first_error(sim::ExecMode::TimingOnly), infeasible);
}

// NumericsOnly produces no cycle profile to time a batch with, so both entry
// points refuse it up front, by name (an empty batch stays a no-op).
TEST(Batched, NumericsOnlyIsRefusedNamingTheMode) {
  Rng rng(25);
  const std::vector<Matrix<fp16_t>> As{random_matrix<fp16_t>(32, 32, rng)};
  const std::vector<Matrix<fp16_t>> Bs{random_matrix<fp16_t>(32, 32, rng)};
  GemmOptions opt;
  opt.mode = sim::ExecMode::NumericsOnly;
  const auto message = [](const auto& call) {
    try {
      call();
    } catch (const PreconditionError& e) {
      return std::string(e.what());
    }
    return std::string("(no exception)");
  };
  const std::string batched =
      message([&] { (void)kami_batched_gemm<fp16_t>(dev(), As, Bs, Algo::OneD, opt); });
  EXPECT_NE(batched.find("numerics_only"), std::string::npos) << batched;
  const std::string strided = message([&] {
    (void)kami_gemm_strided_batched<fp16_t>(dev(), As[0], Bs[0], 1, Algo::OneD, opt);
  });
  EXPECT_EQ(strided, batched);
}

TEST(Batched, PerfScalesWithBatchSize) {
  const auto b1k = kami_batched_perf<double>(dev(), 64, 64, 64, 1000);
  const auto b10k = kami_batched_perf<double>(dev(), 64, 64, 64, 10000);
  EXPECT_GT(b10k.seconds, b1k.seconds);
  // Throughput improves (setup amortizes) but is bounded by bandwidth.
  EXPECT_GE(b10k.tflops, b1k.tflops * 0.99);
}

TEST(Batched, ChargesGlobalTraffic) {
  const auto perf = kami_batched_perf<double>(dev(), 32, 32, 32, 100);
  EXPECT_GT(perf.per_block.gmem_busy, 0.0);
}

TEST(Batched, BatchedSlowerThanBlockLevelPerProblem) {
  // §5.4: "absolute performance in batched GEMM is lower than the
  // standalone GEMM case ... each small matrix is loaded separately from
  // global memory".
  const auto batched = kami_batched_perf<fp16_t>(dev(), 64, 64, 64, 16384);
  Rng rng(24);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  const auto block = gemm(Algo::OneD, dev(), A, B);
  const double block_tflops = sim::throughput_tflops(dev(), block.profile, 16384);
  EXPECT_LT(batched.tflops, block_tflops);
}

TEST(Batched, StridedBatchedMatchesPerMatrixResults) {
  Rng rng(28);
  constexpr std::size_t kBatch = 3, kN = 32;
  Matrix<fp16_t> Astack(kBatch * kN, kN), Bstack(kBatch * kN, kN);
  for (std::size_t r = 0; r < Astack.rows(); ++r)
    for (std::size_t c = 0; c < kN; ++c) {
      Astack(r, c) = num_traits<fp16_t>::from_acc(static_cast<float>(rng.uniform(-1, 1)));
      Bstack(r, c) = num_traits<fp16_t>::from_acc(static_cast<float>(rng.uniform(-1, 1)));
    }
  const auto Cstack = kami_gemm_strided_batched<fp16_t>(dev(), Astack, Bstack, kBatch);
  ASSERT_EQ(Cstack.rows(), kBatch * kN);
  for (std::size_t b = 0; b < kBatch; ++b) {
    Matrix<fp16_t> a(kN, kN), bb(kN, kN);
    for (std::size_t r = 0; r < kN; ++r)
      for (std::size_t c = 0; c < kN; ++c) {
        a(r, c) = Astack(b * kN + r, c);
        bb(r, c) = Bstack(b * kN + r, c);
      }
    const auto ref = baselines::reference_gemm(a, bb);
    for (std::size_t r = 0; r < kN; ++r)
      for (std::size_t c = 0; c < kN; ++c)
        EXPECT_EQ(Cstack(b * kN + r, c).bits(), ref(r, c).bits());
  }
}

TEST(Batched, StridedBatchedRejectsRaggedStacks) {
  Matrix<fp16_t> Astack(33, 16), Bstack(32, 16);
  EXPECT_THROW((void)kami_gemm_strided_batched<fp16_t>(dev(), Astack, Bstack, 2),
               PreconditionError);
}

TEST(LowRank, ThinKMatchesReference) {
  Rng rng(25);
  for (std::size_t k : {16u, 32u}) {
    const auto U = random_matrix<fp16_t>(128, k, rng);
    const auto V = random_matrix<fp16_t>(k, 128, rng);
    const auto r = lowrank_gemm(dev(), U, V);
    EXPECT_DOUBLE_EQ(max_abs_diff(r.C, baselines::reference_gemm(U, V)), 0.0) << k;
  }
}

TEST(LowRank, RejectsFatInnerDimension) {
  Rng rng(26);
  const auto U = random_matrix<fp16_t>(64, 128, rng);
  const auto V = random_matrix<fp16_t>(128, 64, rng);
  EXPECT_THROW((void)lowrank_gemm(dev(), U, V), PreconditionError);
}

TEST(LowRank, CheaperThanSquareOfSameOutput) {
  // The point of low-rank approximation: fewer flops, fewer cycles.
  Rng rng(27);
  const auto U = random_matrix<fp16_t>(128, 16, rng);
  const auto V = random_matrix<fp16_t>(16, 128, rng);
  const auto thin = lowrank_gemm(dev(), U, V);
  const auto A = random_matrix<fp16_t>(128, 128, rng);
  const auto B = random_matrix<fp16_t>(128, 128, rng);
  const auto square = gemm(Algo::OneD, dev(), A, B);
  EXPECT_LT(thin.profile.latency, square.profile.latency);
}

}  // namespace
}  // namespace kami::core
