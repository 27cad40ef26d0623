// The one host GEMM kernel, and the SIMD primitives every numeric data plane
// shares. The NumericsOnly fast path (core/numeric_path.hpp), the Full-mode
// simulator fragment ops (sim/warp.hpp) and, through numeric_gemm, the
// serving ladder's reference rung all compute C with gemm_accumulate below,
// so "Full is bit-identical to NumericsOnly" holds by construction — the
// paths run the same multiply-add chains through the same function.
//
// Bit-identity contract (the reason these loops look the way they do):
//   * The kernel vectorizes over j — C columns — and each vector lane
//     carries exactly one (i, j) accumulator through the k extent in
//     ascending order. Lanes never exchange or re-associate values, so each
//     lane performs the same single-rounded multiply-add sequence the scalar
//     loop performs, and the j-tail that doesn't fill a vector runs the same
//     chain in narrower vectors and then scalar registers. Register blocking
//     (kHostKernelRows rows x 2 vectors of C held across a k-tile), vector
//     width, the ISA variant and tail handling therefore cannot change any
//     bit of any C element (the HostKernel suite, the differential harness
//     and the KAMI_NO_SIMD CI job pin this).
//   * Contraction is pinned off: the library's public compile options carry
//     -ffp-contract=off, and neither the AVX2 nor the AVX-512F variant
//     enables FMA, so `c += a * b` is a rounded multiply followed by a
//     rounded add in every build and every variant
//     (HostKernel.NoFusedMultiplyAdd; the host_kernel_no_fma ctest finds no
//     fused instruction in any compiled variant).
//   * A scalar times a vector broadcasts the scalar into every lane (one
//     broadcast instruction); it never goes through `v + x`, which would
//     quietly turn -0.0 into +0.0 and flip downstream product signs.
//   * add_span is element-wise (c[i] += p[i]): no reduction tree, no
//     re-association, so the SIMD and scalar forms agree bit-for-bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>

#include "util/host_isa.hpp"

namespace kami::core {

/// k-tile width for the accumulate loops: a tile of B rows
/// (kNumericKTile x n accumulators) stays cache-resident while every row
/// block of C sweeps it, instead of streaming the whole k extent per C row.
/// Tiling only regroups the i/k loop nest — each (i, j) element still
/// accumulates over ascending k, so results are bit-identical.
inline constexpr std::size_t kNumericKTile = 64;

namespace detail {

/// Vector bytes per variant (util/host_isa.hpp).
inline constexpr std::size_t kBaselineVectorBytes = vector_bytes(HostIsa::Baseline);
inline constexpr std::size_t kAvx2VectorBytes = vector_bytes(HostIsa::Avx2);
inline constexpr std::size_t kAvx512VectorBytes = vector_bytes(HostIsa::Avx512f);

/// Rows of C the kernel holds in registers (MR), in every variant: each B
/// vector load feeds MR multiply-adds. Measured best or near-best among 1,
/// 2, 3, 4 and 6 with the baseline and AVX2 instruction sets, and among 4,
/// 6, 8 and 12 with AVX-512F's 32 registers, where 6 and 8 gain 5-7 % at
/// order 256 but lose 11-22 % on the 8-24-row windows the block baselines
/// multiply (DESIGN.md §12). Splitting n into blocks that keep the B k-tile
/// in L1 (64 or 128 columns) did not pay at orders 192-256 either.
inline constexpr std::size_t kHostKernelRows = 4;

#ifdef KAMI_NUMERIC_SIMD
/// A GCC/Clang generic vector of Bytes / sizeof(Acc) accumulator lanes.
template <typename Acc, std::size_t Bytes>
struct SimdVec {
  typedef Acc type __attribute__((vector_size(Bytes)));
};

/// One register tile: MR rows x NV vectors of C at column j, held in
/// registers across the k-tile, so each B vector load feeds MR
/// multiply-adds. Every lane is one (r, j) chain over ascending kk.
template <std::size_t VB, std::size_t MR, std::size_t NV, typename Acc>
[[gnu::always_inline]] inline void gemm_register_tile(Acc* __restrict__ c, std::size_t ldc,
                                                      const Acc* __restrict__ a,
                                                      std::size_t lda,
                                                      const Acc* __restrict__ b,
                                                      std::size_t ldb, std::size_t kt,
                                                      std::size_t kend, std::size_t j) {
  using V = typename SimdVec<Acc, VB>::type;
  constexpr std::size_t W = VB / sizeof(Acc);
  V acc[MR][NV];
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t v = 0; v < NV; ++v)
      std::memcpy(&acc[r][v], c + r * ldc + j + v * W, sizeof(V));
  for (std::size_t kk = kt; kk < kend; ++kk) {
    V bv[NV];
    for (std::size_t v = 0; v < NV; ++v)
      std::memcpy(&bv[v], b + kk * ldb + j + v * W, sizeof(V));
    for (std::size_t r = 0; r < MR; ++r) {
      const Acc av = a[r * lda + kk];
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t v = 0; v < NV; ++v)
      std::memcpy(c + r * ldc + j + v * W, &acc[r][v], sizeof(V));
}

/// The kernel body, for MR rows of C with VB-byte vectors:
///   c[r*ldc + j] += sum_{kk in [kt, kend)} a[r*lda + kk] * b[kk*ldb + j]
/// for r < MR and j < n, accumulated in ascending kk per element: register
/// tiles of 2 vectors, then one vector, then (in the wider variants) one
/// half-width vector, so a window narrower than one vector still runs in
/// vector lanes, then the scalar chain per column. Always inlined, so each
/// variant compiles it with its own instruction set.
template <std::size_t VB, std::size_t MR, typename Acc>
[[gnu::always_inline]] inline void gemm_row_block(Acc* __restrict__ c, std::size_t ldc,
                                                  const Acc* __restrict__ a, std::size_t lda,
                                                  const Acc* __restrict__ b, std::size_t ldb,
                                                  std::size_t kt, std::size_t kend,
                                                  std::size_t n) {
  constexpr std::size_t W = VB / sizeof(Acc);
  std::size_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W)
    gemm_register_tile<VB, MR, 2>(c, ldc, a, lda, b, ldb, kt, kend, j);
  if (j + W <= n) {
    gemm_register_tile<VB, MR, 1>(c, ldc, a, lda, b, ldb, kt, kend, j);
    j += W;
  }
  if constexpr (VB > kBaselineVectorBytes) {
    if (j + W / 2 <= n) {
      gemm_register_tile<VB / 2, MR, 1>(c, ldc, a, lda, b, ldb, kt, kend, j);
      j += W / 2;
    }
  }
  for (; j < n; ++j) {
    Acc cs[MR];
    for (std::size_t r = 0; r < MR; ++r) cs[r] = c[r * ldc + j];
    for (std::size_t kk = kt; kk < kend; ++kk) {
      const Acc bv = b[kk * ldb + j];
      for (std::size_t r = 0; r < MR; ++r) cs[r] += a[r * lda + kk] * bv;
    }
    for (std::size_t r = 0; r < MR; ++r) c[r * ldc + j] = cs[r];
  }
}

/// The kernel's outer loops: k-tiles in ascending order; within a tile,
/// blocks of kHostKernelRows rows, then the row tail through the MR = 1
/// instantiation of the same body.
template <std::size_t VB, typename Acc>
[[gnu::always_inline]] inline void gemm_tiles(Acc* c, std::size_t ldc, const Acc* a,
                                              std::size_t lda, const Acc* b, std::size_t ldb,
                                              std::size_t m, std::size_t n, std::size_t k) {
  constexpr std::size_t MR = kHostKernelRows;
  for (std::size_t kt = 0; kt < k; kt += kNumericKTile) {
    const std::size_t kend = std::min(kt + kNumericKTile, k);
    std::size_t i = 0;
    for (; i + MR <= m; i += MR)
      gemm_row_block<VB, MR>(c + i * ldc, ldc, a + i * lda, lda, b, ldb, kt, kend, n);
    for (; i < m; ++i)
      gemm_row_block<VB, 1>(c + i * ldc, ldc, a + i * lda, lda, b, ldb, kt, kend, n);
  }
}
#endif

/// True when the element ranges [p, p + np) and [q, q + nq) share an element.
template <typename T>
bool spans_overlap(const T* p, std::size_t np, const T* q, std::size_t nq) noexcept {
  const std::less<const T*> before;
  return np != 0 && nq != 0 && before(p, q + nq) && before(q, p + np);
}

/// C (m x n, row stride ldc) += A (m x k, stride lda) x B (k x n, stride
/// ldb), one ascending-k chain per C element, compiled for the build's
/// baseline instruction set. C must not overlap A or B. With KAMI_NO_SIMD
/// (or a non-GNU compiler) this is the plain scalar loop nest — the
/// compiler may still auto-vectorize it, which is fine, because the
/// per-element chains are what define the result bits.
template <typename Acc>
void gemm_kernel_baseline(Acc* c, std::size_t ldc, const Acc* a, std::size_t lda,
                          const Acc* b, std::size_t ldb, std::size_t m, std::size_t n,
                          std::size_t k) {
#ifdef KAMI_NUMERIC_SIMD
  gemm_tiles<kBaselineVectorBytes>(c, ldc, a, lda, b, ldb, m, n, k);
#else
  for (std::size_t kt = 0; kt < k; kt += kNumericKTile) {
    const std::size_t kend = std::min(kt + kNumericKTile, k);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t kk = kt; kk < kend; ++kk) {
        const Acc av = a[i * lda + kk];
        for (std::size_t j = 0; j < n; ++j) c[i * ldc + j] += av * b[kk * ldb + j];
      }
  }
#endif
}

#ifdef KAMI_HOST_X86_VARIANTS
/// The same kernel body compiled for AVX2, with 32-byte vectors, and for
/// AVX-512F, with 64-byte vectors. Neither enables FMA, so nothing can
/// contract.
template <typename Acc>
[[gnu::target("avx2")]] void gemm_kernel_avx2(Acc* c, std::size_t ldc, const Acc* a,
                                              std::size_t lda, const Acc* b, std::size_t ldb,
                                              std::size_t m, std::size_t n, std::size_t k) {
  gemm_tiles<kAvx2VectorBytes>(c, ldc, a, lda, b, ldb, m, n, k);
}

template <typename Acc>
[[gnu::target("avx512f")]] void gemm_kernel_avx512(Acc* c, std::size_t ldc, const Acc* a,
                                                   std::size_t lda, const Acc* b,
                                                   std::size_t ldb, std::size_t m,
                                                   std::size_t n, std::size_t k) {
  gemm_tiles<kAvx512VectorBytes>(c, ldc, a, lda, b, ldb, m, n, k);
}
#endif

/// The host GEMM kernel every data plane calls: the widest variant the CPU
/// runs (host_isa()), the baseline otherwise. All produce the same bits.
template <typename Acc>
inline void gemm_accumulate(Acc* c, std::size_t ldc, const Acc* a, std::size_t lda,
                            const Acc* b, std::size_t ldb, std::size_t m, std::size_t n,
                            std::size_t k) {
#ifdef KAMI_HOST_X86_VARIANTS
  switch (host_isa()) {
    case HostIsa::Avx512f: return gemm_kernel_avx512(c, ldc, a, lda, b, ldb, m, n, k);
    case HostIsa::Avx2: return gemm_kernel_avx2(c, ldc, a, lda, b, ldb, m, n, k);
    case HostIsa::Baseline: break;
  }
#endif
  gemm_kernel_baseline(c, ldc, a, lda, b, ldb, m, n, k);
}

/// dst[i] += src[i] element-wise in accumulator precision. Used by the
/// Full-mode add_inplace/add_inplace_at vector ops and the KAMI-3D layer
/// reduction. No re-association, so SIMD and scalar builds agree
/// bit-for-bit. dst and src must either be disjoint or identical ranges
/// (the in-order scalar loop and the blocked SIMD loop agree for both).
template <typename Acc>
inline void add_span(Acc* dst, const Acc* src, std::size_t n) {
#ifdef KAMI_NUMERIC_SIMD
  using V = typename SimdVec<Acc, kBaselineVectorBytes>::type;
  constexpr std::size_t W = kBaselineVectorBytes / sizeof(Acc);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    V d, s;
    std::memcpy(&d, dst + i, sizeof(V));
    std::memcpy(&s, src + i, sizeof(V));
    d += s;
    std::memcpy(dst + i, &d, sizeof(V));
  }
  for (; i < n; ++i) dst[i] += src[i];
#else
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
#endif
}

}  // namespace detail

/// Accumulator lanes per vector of the kernel variant gemm_accumulate runs
/// on this CPU, 1 when the scalar fallback is compiled in. Exported so
/// benchmarks can stamp the kernel configuration into their run-report meta.
template <typename Acc>
inline std::size_t numeric_simd_lanes() noexcept {
#ifdef KAMI_NUMERIC_SIMD
  return vector_bytes(host_isa()) / sizeof(Acc);
#else
  return 1;
#endif
}

/// The kernel variant gemm_accumulate runs on this CPU.
inline const char* numeric_simd_name() noexcept {
#ifdef KAMI_NUMERIC_SIMD
  switch (host_isa()) {
    case HostIsa::Avx512f: return "vector-ext-64B+avx512f";
    case HostIsa::Avx2: return "vector-ext-32B+avx2";
    case HostIsa::Baseline: break;
  }
  return "vector-ext-16B";
#else
  return "scalar";
#endif
}

}  // namespace kami::core
