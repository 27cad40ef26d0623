// The one host GEMM kernel (core/vector_kernels.hpp) against its oracles:
//   * numeric_gemm equals baselines::reference_gemm bit for bit on seeded
//     ragged shapes in all six precisions, and for FP32/FP64 at 384^3;
//   * the baseline, AVX2 and AVX-512F variants equal each other and the
//     scalar chain on strided operands, with every row remainder modulo MR
//     and every column remainder modulo 2W of the widest variant;
//   * KAMI-3D's layered association (layers = 2, 3, 4) equals a scalar
//     replica of that association;
//   * FP32/FP64 compute in place, with no arena allocation, and C may not
//     overlap A or B;
//   * no multiply-add is fused anywhere the host computes C.
// The no-simd CI job runs this suite too, where the baseline variant is the
// scalar loop and no x86 variant is compiled. A variant this CPU cannot run
// is skipped; the host_kernel_no_fma ctest still checks its instructions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../testing/test_device.hpp"
#include "baselines/reference.hpp"
#include "core/arena.hpp"
#include "core/kami.hpp"
#include "util/rng.hpp"
#include "verify/data_plane.hpp"

namespace kami::core {
namespace {

/// Row remainders the kernel distinguishes (its MR-row blocks), and column
/// remainders: two vectors of the widest variant's FP32 lanes, which also
/// covers every narrower vector width and the half-vector column step.
constexpr std::size_t kRowPeriod = detail::kHostKernelRows;
constexpr std::size_t kColumnPeriod = 2 * detail::kAvx512VectorBytes / sizeof(float);
/// Largest m, n and k of a ragged shape.
constexpr std::size_t kMaxExtent = 70;

template <Scalar T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  return a.same_shape(b) && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

struct Shape {
  std::size_t m, n, k;
};

std::string label(const Shape& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.n) + "x" + std::to_string(s.k);
}

/// Seeded ragged shapes with m, n, k in [1, kMaxExtent]. The first
/// kColumnPeriod shapes pin n to every remainder modulo kColumnPeriod and m
/// to every remainder modulo kRowPeriod, and put k at both edges of a
/// k-tile; the rest are drawn freely.
std::vector<Shape> ragged_shapes(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  const auto draw = [&](std::size_t hi) {
    return 1 + static_cast<std::size_t>(rng.uniform_index(hi));
  };
  std::vector<Shape> shapes;
  for (std::size_t t = 0; t < count; ++t) {
    Shape s{draw(kMaxExtent), draw(kMaxExtent), draw(kMaxExtent)};
    if (t < kColumnPeriod) {
      s.n = kColumnPeriod * draw(kMaxExtent / kColumnPeriod - 1) + t;
      s.m = kRowPeriod * draw(kMaxExtent / kRowPeriod - 1) + t % kRowPeriod;
      if (t < 3) s.k = kNumericKTile - 1 + t;
    }
    shapes.push_back(s);
  }
  return shapes;
}

TEST(HostKernel, RaggedShapesCoverEveryRemainder) {
  std::set<std::size_t> rows, cols;
  for (const Shape& s : ragged_shapes(1, 40)) {
    EXPECT_TRUE(s.m >= 1 && s.m <= kMaxExtent && s.n >= 1 && s.n <= kMaxExtent && s.k >= 1 &&
                s.k <= kMaxExtent)
        << label(s);
    rows.insert(s.m % kRowPeriod);
    cols.insert(s.n % kColumnPeriod);
  }
  EXPECT_EQ(rows.size(), kRowPeriod);
  EXPECT_EQ(cols.size(), kColumnPeriod);
}

template <Scalar T>
void expect_numeric_matches_reference(std::uint64_t seed) {
  Rng rng(seed);
  for (const Shape& s : ragged_shapes(seed, 40)) {
    const auto A = random_matrix<T>(s.m, s.k, rng);
    const auto B = random_matrix<T>(s.k, s.n, rng);
    EXPECT_TRUE(bits_equal(numeric_gemm(A, B), baselines::reference_gemm(A, B)))
        << precision_name(num_traits<T>::precision) << " " << label(s);
  }
}

TEST(HostKernel, NumericGemmMatchesReferenceInEveryPrecision) {
  expect_numeric_matches_reference<double>(11);
  expect_numeric_matches_reference<float>(12);
  expect_numeric_matches_reference<tf32_t>(13);
  expect_numeric_matches_reference<fp16_t>(14);
  expect_numeric_matches_reference<bf16_t>(15);
  expect_numeric_matches_reference<fp8_e4m3_t>(16);
}

template <Scalar T>
void expect_cube_matches_reference(std::size_t order) {
  Rng rng(order);
  const auto A = random_matrix<T>(order, order, rng);
  const auto B = random_matrix<T>(order, order, rng);
  EXPECT_TRUE(bits_equal(numeric_gemm(A, B), baselines::reference_gemm(A, B)))
      << precision_name(num_traits<T>::precision) << " " << order << "^3";
}

TEST(HostKernel, LargeCubesMatchReference) {
  expect_cube_matches_reference<float>(384);
  expect_cube_matches_reference<double>(384);
}

/// Strided operands for calling a kernel variant directly: each matrix sits
/// in a wider buffer (pad columns hold values the kernel must not touch),
/// and C starts from random values, since the kernel accumulates.
template <typename Acc>
struct StridedCase {
  Shape s;
  std::size_t lda, ldb, ldc;
  std::vector<Acc> a, b, c;

  StridedCase(const Shape& shape, Rng& rng)
      : s(shape), lda(shape.k + 3), ldb(shape.n + 5), ldc(shape.n + 1),
        a(shape.m * lda), b(shape.k * ldb), c(shape.m * ldc) {
    for (auto* v : {&a, &b, &c})
      for (Acc& x : *v) x = static_cast<Acc>(rng.uniform(-1.0, 1.0));
  }

  /// The scalar chain every variant must reproduce.
  std::vector<Acc> expected() const {
    std::vector<Acc> out = c;
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t j = 0; j < s.n; ++j) {
        Acc acc = out[i * ldc + j];
        for (std::size_t kk = 0; kk < s.k; ++kk) acc += a[i * lda + kk] * b[kk * ldb + j];
        out[i * ldc + j] = acc;
      }
    return out;
  }

  template <typename Kernel>
  std::vector<Acc> run(Kernel kernel) const {
    std::vector<Acc> out = c;
    kernel(out.data(), ldc, a.data(), lda, b.data(), ldb, s.m, s.n, s.k);
    return out;
  }
};

template <typename Acc>
bool same_bits(const std::vector<Acc>& x, const std::vector<Acc>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(Acc)) == 0;
}

template <typename Acc>
void expect_baseline_matches_scalar_chain(std::uint64_t seed) {
  Rng rng(seed);
  for (const Shape& s : ragged_shapes(seed, 60)) {
    const StridedCase<Acc> tc(s, rng);
    EXPECT_TRUE(same_bits(tc.run(detail::gemm_kernel_baseline<Acc>), tc.expected()))
        << sizeof(Acc) * 8 << "-bit " << label(s);
  }
}

TEST(HostKernel, BaselineVariantMatchesScalarChain) {
  expect_baseline_matches_scalar_chain<float>(21);
  expect_baseline_matches_scalar_chain<double>(22);
}

#ifdef KAMI_HOST_X86_VARIANTS
template <typename Acc, typename Kernel>
void expect_variant_matches_baseline(Kernel variant, std::uint64_t seed) {
  Rng rng(seed);
  for (const Shape& s : ragged_shapes(seed, 60)) {
    const StridedCase<Acc> tc(s, rng);
    const auto out = tc.run(variant);
    EXPECT_TRUE(same_bits(out, tc.run(detail::gemm_kernel_baseline<Acc>)))
        << sizeof(Acc) * 8 << "-bit " << label(s);
    EXPECT_TRUE(same_bits(out, tc.expected())) << sizeof(Acc) * 8 << "-bit " << label(s);
  }
}
#endif

TEST(HostKernel, Avx2VariantMatchesBaseline) {
#ifdef KAMI_HOST_X86_VARIANTS
  if (host_isa() < HostIsa::Avx2)
    GTEST_SKIP() << "this CPU lacks AVX2: the AVX2 variant was not compared";
  expect_variant_matches_baseline<float>(detail::gemm_kernel_avx2<float>, 31);
  expect_variant_matches_baseline<double>(detail::gemm_kernel_avx2<double>, 32);
#else
  GTEST_SKIP() << "this build compiles no AVX2 variant (" << numeric_simd_name() << ")";
#endif
}

TEST(HostKernel, Avx512VariantMatchesBaseline) {
#ifdef KAMI_HOST_X86_VARIANTS
  if (host_isa() < HostIsa::Avx512f)
    GTEST_SKIP() << "this CPU lacks AVX-512F: the AVX-512F variant was not compared";
  expect_variant_matches_baseline<float>(detail::gemm_kernel_avx512<float>, 33);
  expect_variant_matches_baseline<double>(detail::gemm_kernel_avx512<double>, 34);
#else
  GTEST_SKIP() << "this build compiles no AVX-512F variant (" << numeric_simd_name() << ")";
#endif
}

/// KAMI-3D's association, written out: layer l accumulates its k-segment
/// from zero, and the layers reduce into C in layer order.
template <Scalar T>
Matrix<T> layered_replica(const Matrix<T>& A, const Matrix<T>& B, std::size_t layers) {
  using Acc = typename num_traits<T>::acc_t;
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols(), kb = k / layers;
  Matrix<T> C(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      Acc total{};
      for (std::size_t l = 0; l < layers; ++l) {
        Acc part{};
        for (std::size_t kk = l * kb; kk < (l + 1) * kb; ++kk)
          part += num_traits<T>::to_acc(A(i, kk)) * num_traits<T>::to_acc(B(kk, j));
        total = l == 0 ? part : total + part;
      }
      C(i, j) = num_traits<T>::from_acc(total);
    }
  return C;
}

template <Scalar T>
void expect_layers_match_replica(std::uint64_t seed) {
  Rng rng(seed);
  for (const std::size_t layers : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    for (Shape s : ragged_shapes(seed + layers, 12)) {
      s.k = layers * (1 + static_cast<std::size_t>(rng.uniform_index(70 / layers)));
      const auto A = random_matrix<T>(s.m, s.k, rng);
      const auto B = random_matrix<T>(s.k, s.n, rng);
      EXPECT_TRUE(bits_equal(numeric_gemm(A, B, layers), layered_replica(A, B, layers)))
          << precision_name(num_traits<T>::precision) << " layers " << layers << " "
          << label(s);
    }
  }
}

TEST(HostKernel, LayeredAssociationMatchesScalarReplica) {
  expect_layers_match_replica<double>(41);
  expect_layers_match_replica<float>(42);
  expect_layers_match_replica<fp16_t>(43);
  expect_layers_match_replica<fp8_e4m3_t>(44);
}

// FP32/FP64 read A and B in place and accumulate straight into C. Run on a
// fresh thread so its arena starts empty and any allocation would show.
TEST(HostKernel, IdentityCodecsComputeInPlace) {
  std::size_t high_water = 1, allocated = 1;
  std::thread worker([&] {
    Rng rng(5);
    const auto A32 = random_matrix<float>(67, 45, rng);
    const auto B32 = random_matrix<float>(45, 29, rng);
    const auto A64 = random_matrix<double>(33, 70, rng);
    const auto B64 = random_matrix<double>(70, 41, rng);
    (void)numeric_gemm(A32, B32);
    (void)numeric_gemm(A64, B64);
    high_water = Arena::tls().high_water_bytes();
    allocated = Arena::tls().total_allocated_bytes();
  });
  worker.join();
  EXPECT_EQ(high_water, 0u);
  EXPECT_EQ(allocated, 0u);
}

TEST(HostKernel, OutputMayNotOverlapOperands) {
  std::vector<double> buf(64, 1.0);
  EXPECT_THROW(numeric_gemm_into(buf.data(), buf.data() + 16, buf.data() + 8, 4, 4, 4),
               PreconditionError);
  EXPECT_THROW(numeric_gemm_into(buf.data(), buf.data() + 16, buf.data() + 20, 4, 4, 4),
               PreconditionError);
  EXPECT_NO_THROW(numeric_gemm_into(buf.data(), buf.data() + 16, buf.data() + 32, 4, 4, 4));
}

// a1*b1 + a2*b2 with a1 = -(1+2^-11), b1 = 1, a2 = b2 = 1+2^-12. The exact
// product a2*b2 = 1 + 2^-11 + 2^-24 rounds to 1 + 2^-11 in FP32, so the
// unfused chain gives exactly 0; a fused multiply-add keeps the 2^-24.
TEST(HostKernel, NoFusedMultiplyAdd) {
  const float a1 = -(1.0f + std::ldexp(1.0f, -11)), b1 = 1.0f;
  const float a2 = 1.0f + std::ldexp(1.0f, -12), b2 = a2;
  ASSERT_EQ(std::fma(a2, b2, a1 * b1), std::ldexp(1.0f, -24)) << "the case must tell";

  // 5 x 63 runs every kernel path: an MR-row block and its row tail, and
  // two-vector, one-vector, half-vector (AVX2, AVX-512F) and scalar column
  // blocks in each variant (63 = 32 + 16 + 8 + 7 FP32 lanes in AVX-512F,
  // 48 + 8 + 4 + 3 in AVX2, 56 + 4 + 3 in the baseline).
  const std::size_t m = 5, n = 63;
  Matrix<float> A(m, 2), B(2, n);
  for (std::size_t i = 0; i < m; ++i) {
    A(i, 0) = a1;
    A(i, 1) = a2;
  }
  for (std::size_t j = 0; j < n; ++j) {
    B(0, j) = b1;
    B(1, j) = b2;
  }
  const Matrix<float> zero(m, n);
  EXPECT_TRUE(bits_equal(baselines::reference_gemm(A, B), zero));
  EXPECT_TRUE(bits_equal(numeric_gemm(A, B), zero));

  const auto variant = [&](auto kernel) {
    Matrix<float> C(m, n);
    kernel(C.data(), n, A.data(), std::size_t{2}, B.data(), n, m, n, std::size_t{2});
    return C;
  };
  EXPECT_TRUE(bits_equal(variant(detail::gemm_kernel_baseline<float>), zero));
#ifdef KAMI_HOST_X86_VARIANTS
  if (host_isa() >= HostIsa::Avx2) {
    EXPECT_TRUE(bits_equal(variant(detail::gemm_kernel_avx2<float>), zero));
  }
  if (host_isa() >= HostIsa::Avx512f) {
    EXPECT_TRUE(bits_equal(variant(detail::gemm_kernel_avx512<float>), zero));
  }
#endif

  // A KAMI-1D data-plane block runs the same chain through Warp::mma.
  Matrix<float> A16(16, 2), B16(2, 16);
  for (std::size_t i = 0; i < 16; ++i) {
    A16(i, 0) = a1;
    A16(i, 1) = a2;
    B16(0, i) = b1;
    B16(1, i) = b2;
  }
  const auto data =
      verify::data_plane_gemm(Algo::OneD, kami::testing::tiny_device(), A16, B16);
  EXPECT_GT(data.profile.latency, 0.0);
  EXPECT_TRUE(bits_equal(data.C, Matrix<float>(16, 16)));
}

}  // namespace
}  // namespace kami::core
