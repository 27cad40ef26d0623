#include <gtest/gtest.h>

#include "baselines/reference.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/spmm.hpp"

namespace kami::sparse {
namespace {

const sim::DeviceSpec& dev() { return sim::gh200(); }

// ---------------------------------------------------------------------------
// SpMM
// ---------------------------------------------------------------------------

TEST(Spmm, MatchesDensifiedReference) {
  for (std::size_t n : {64u, 128u}) {
    Rng rng(n);
    const auto A = BlockSparseMatrix<fp16_t>::random(n, n, 0.5, rng);
    const auto B = random_matrix<fp16_t>(n, n, rng);
    const auto r = spmm_1d(dev(), A, B);
    const auto ref = baselines::reference_gemm(A.to_dense(), B);
    EXPECT_DOUBLE_EQ(max_abs_diff(r.C, ref), 0.0) << n;
  }
}

TEST(Spmm, FullDensityEqualsDenseGemm) {
  Rng rng(41);
  const auto A = BlockSparseMatrix<fp16_t>::random(64, 64, 1.0, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  const auto r = spmm_1d(dev(), A, B);
  EXPECT_DOUBLE_EQ(max_abs_diff(r.C, baselines::reference_gemm(A.to_dense(), B)), 0.0);
}

TEST(Spmm, EmptyMatrixYieldsZero) {
  Rng rng(42);
  const auto A = BlockSparseMatrix<fp16_t>::random(64, 64, 0.0, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  const auto r = spmm_1d(dev(), A, B);
  Matrix<fp16_t> zero(64, 64);
  EXPECT_DOUBLE_EQ(max_abs_diff(r.C, zero), 0.0);
  EXPECT_DOUBLE_EQ(r.useful_flops, 0.0);
}

TEST(Spmm, ComputeScalesWithDensityCommunicationDoesNot) {
  // §5.5: SpMM's performance tracks dense GEMM because B and C stay dense —
  // the broadcast volume is density-independent while the MMA work scales.
  Rng rng(43);
  const auto sparse = BlockSparseMatrix<fp16_t>::random(128, 128, 0.25, rng);
  const auto denseA = BlockSparseMatrix<fp16_t>::random(128, 128, 1.0, rng);
  const auto B = random_matrix<fp16_t>(128, 128, rng);
  const auto rs = spmm_1d(dev(), sparse, B);
  const auto rd = spmm_1d(dev(), denseA, B);
  EXPECT_LT(rs.profile.tc_busy, 0.5 * rd.profile.tc_busy);
  EXPECT_NEAR(rs.profile.smem_busy, rd.profile.smem_busy, 1e-9);
}

TEST(Spmm, RectangularShapes) {
  Rng rng(44);
  const auto A = BlockSparseMatrix<fp16_t>::random(64, 128, 0.5, rng);
  const auto B = random_matrix<fp16_t>(128, 32, rng);
  const auto r = spmm_1d(dev(), A, B);
  EXPECT_DOUBLE_EQ(max_abs_diff(r.C, baselines::reference_gemm(A.to_dense(), B)), 0.0);
}

TEST(Spmm, RejectsMismatchedShapes) {
  Rng rng(45);
  const auto A = BlockSparseMatrix<fp16_t>::random(64, 64, 0.5, rng);
  const auto B = random_matrix<fp16_t>(32, 64, rng);
  EXPECT_THROW((void)spmm_1d(dev(), A, B), PreconditionError);
}

// ---------------------------------------------------------------------------
// SpGEMM
// ---------------------------------------------------------------------------

TEST(SpgemmSymbolic, StructureIsTheSpaUnion) {
  Rng rng(46);
  const auto A = BlockSparseMatrix<fp16_t>::random(64, 64, 0.5, rng);
  const auto B = BlockSparseMatrix<fp16_t>::random(64, 64, 0.5, rng);
  const auto sym = spgemm_symbolic(dev(), A, B);
  // Verify against a direct dense structural product.
  for (std::size_t br = 0; br < A.block_rows(); ++br)
    for (std::size_t bj = 0; bj < B.block_cols(); ++bj) {
      bool expected = false;
      for (std::size_t bc = 0; bc < A.block_cols() && !expected; ++bc)
        expected = A.find(br, bc).has_value() && B.find(bc, bj).has_value();
      EXPECT_EQ(sym.c_cols_per_row[br].count(bj) > 0, expected) << br << "," << bj;
    }
  EXPECT_GT(sym.cycles, 0.0);
}

TEST(Spgemm, MatchesDensifiedReference) {
  for (std::size_t n : {64u, 128u}) {
    Rng rng(n + 50);
    const auto A = BlockSparseMatrix<fp16_t>::random(n, n, 0.5, rng);
    const auto B = BlockSparseMatrix<fp16_t>::random(n, n, 0.5, rng);
    const auto r = spgemm_1d(dev(), A, B);
    const auto ref = baselines::reference_gemm(A.to_dense(), B.to_dense());
    EXPECT_DOUBLE_EQ(max_abs_diff(r.C.to_dense(), ref), 0.0) << n;
  }
}

TEST(Spgemm, FullDensityEqualsDenseGemm) {
  Rng rng(51);
  const auto A = BlockSparseMatrix<fp16_t>::random(64, 64, 1.0, rng);
  const auto B = BlockSparseMatrix<fp16_t>::random(64, 64, 1.0, rng);
  const auto r = spgemm_1d(dev(), A, B);
  const auto ref = baselines::reference_gemm(A.to_dense(), B.to_dense());
  EXPECT_DOUBLE_EQ(max_abs_diff(r.C.to_dense(), ref), 0.0);
}

TEST(Spgemm, EmptyOperandsGiveEmptyResult) {
  Rng rng(52);
  const auto A = BlockSparseMatrix<fp16_t>::random(64, 64, 0.0, rng);
  const auto B = BlockSparseMatrix<fp16_t>::random(64, 64, 0.5, rng);
  const auto r = spgemm_1d(dev(), A, B);
  EXPECT_EQ(r.C.nnz_blocks(), 0u);
  EXPECT_EQ(r.symbolic.nnz_blocks, 0u);
  EXPECT_DOUBLE_EQ(r.useful_flops, 0.0);
}

TEST(Spgemm, ZMortonRectangularGridsMatchDensifiedReference) {
  // Z-Morton block order and non-square block grids (64x128 * 128x32).
  Rng rng(56);
  const auto A =
      BlockSparseMatrix<fp16_t>::random(64, 128, 0.5, rng, 16, BlockOrder::ZMorton);
  const auto B =
      BlockSparseMatrix<fp16_t>::random(128, 32, 0.5, rng, 16, BlockOrder::ZMorton);
  const auto r = spgemm_1d(dev(), A, B);
  const auto ref = baselines::reference_gemm(A.to_dense(), B.to_dense());
  EXPECT_DOUBLE_EQ(max_abs_diff(r.C.to_dense(), ref), 0.0);
}

TEST(Spgemm, StructureBoundedBySymbolicPhase) {
  // Structural nnz can only shrink from symbolic (exact numeric zeros).
  Rng rng(57);
  const auto A = BlockSparseMatrix<fp16_t>::random(64, 64, 0.4, rng);
  const auto B = BlockSparseMatrix<fp16_t>::random(64, 64, 0.4, rng);
  const auto r = spgemm_1d(dev(), A, B);
  EXPECT_GT(r.symbolic.nnz_blocks, 0u);
  EXPECT_LE(r.C.nnz_blocks(), r.symbolic.nnz_blocks);
}

TEST(Spgemm, Fp64Supported) {
  Rng rng(53);
  const auto A = BlockSparseMatrix<double>::random(64, 64, 0.5, rng);
  const auto B = BlockSparseMatrix<double>::random(64, 64, 0.5, rng);
  const auto r = spgemm_1d(dev(), A, B);
  const auto ref = baselines::reference_gemm(A.to_dense(), B.to_dense());
  EXPECT_DOUBLE_EQ(max_abs_diff(r.C.to_dense(), ref), 0.0);
}

TEST(Spgemm, IndexArraysAreCommunicated) {
  // §4.6: "besides transferring the Val array, it is necessary to transmit
  // the index arrays" — the sparse kernel moves more than Val bytes.
  Rng rng(54);
  const auto A = BlockSparseMatrix<fp16_t>::random(64, 64, 0.5, rng);
  const auto B = BlockSparseMatrix<fp16_t>::random(64, 64, 0.5, rng);
  const auto r = spgemm_1d(dev(), A, B);
  const double val_only_write =
      static_cast<double>(B.nnz_blocks() * 16 * 16 * sizeof(fp16_t)) /
      dev().smem_bytes_per_cycle();
  // Write traffic must exceed the pure-Val bound thanks to RowPtr/ColBlkIdx.
  EXPECT_GT(r.profile.smem_busy, val_only_write);
}

TEST(Spgemm, LessPredictableThanSpmm) {
  // §5.5: SpGEMM's irregular indexing reduces throughput relative to SpMM.
  Rng rng(55);
  const auto A = BlockSparseMatrix<fp16_t>::random(128, 128, 0.5, rng);
  const auto Bsp = BlockSparseMatrix<fp16_t>::random(128, 128, 0.5, rng);
  const auto Bd = random_matrix<fp16_t>(128, 128, rng);
  const auto rs = spgemm_1d(dev(), A, Bsp);
  const auto rm = spmm_1d(dev(), A, Bd);
  const double spgemm_rate = rs.useful_flops / rs.profile.latency;
  const double spmm_rate = rm.useful_flops / rm.profile.latency;
  EXPECT_LT(spgemm_rate, spmm_rate);
}

}  // namespace
}  // namespace kami::sparse
