// The NumericsOnly fast path: C = A x B in the kernels' exact rounding
// model, with the cycle simulator bypassed entirely.
//
// Why this is bit-identical to the simulated kernels:
//   * Every KAMI kernel accumulates each C element as a single sequential
//     chain in accumulator precision over ascending k (1D stripes, 2D
//     stages, and each 3D layer all cover k in order), then narrows once
//     at writeback. Shared-memory and fragment transits copy bits
//     unchanged, so only the arithmetic chain matters.
//   * KAMI-3D re-associates across its `c` depth layers: layer l computes
//     the partial sum over its k-segment, and layers are reduced in order
//     ((S0 + S1) + S2)... in accumulator precision. `layers` replicates
//     exactly that association; 1D/2D use layers = 1.
//   * The simulated mma (sim/warp.hpp) and this path run the same kernel,
//     detail::gemm_accumulate, so the arithmetic is literally one function.
//
// Why the host kernel is bit-identical to the scalar loop (KAMI_NO_SIMD), in
// every variant: see core/vector_kernels.hpp — each C element is one lane's
// ascending-k chain, with contraction pinned off.
//
// Host cost: identity codecs (FP32/FP64 accumulate in themselves) read A and
// B in place and accumulate straight into C — no temporaries at all except
// KAMI-3D's partial-sum buffer. Narrow types pay m*k + k*n table-driven
// decodes (instead of 2*m*n*k scalar conversions) and one narrowing per C
// element around the same kernel. Buffers come from the thread's Arena
// (core/arena.hpp): one bump allocation per buffer, rewound after every
// call, capacity capped by the arena's retain limit — the old thread_local
// vectors pinned the high-water shape forever on long-lived serving threads.
#pragma once

#include <algorithm>
#include <type_traits>

#include "core/arena.hpp"
#include "core/vector_kernels.hpp"
#include "types/decode_tables.hpp"
#include "types/matrix.hpp"

namespace kami::core {

// The kernel itself (gemm_accumulate, its baseline and AVX2 variants,
// kNumericKTile, numeric_simd_lanes/name) lives in core/vector_kernels.hpp so
// the Full-mode simulator data plane (sim/warp.hpp) runs the exact same code.

namespace detail {

/// c (m x n, zeroed) += a (m x k) x b (k x n) in the KAMI-3D association:
/// each of `layers` k-segments accumulates on its own, and the partial sums
/// are reduced into c in layer order. layers == 1 is the plain chain.
template <typename Acc>
void accumulate_layers(const Acc* a, const Acc* b, Acc* c, std::size_t m, std::size_t n,
                       std::size_t k, std::size_t layers) {
  const std::size_t kb = k / layers;
  gemm_accumulate(c, n, a, k, b, n, m, n, kb);
  if (layers == 1) return;
  Arena& arena = Arena::tls();
  ArenaScope scope(arena);
  Acc* part = arena.alloc<Acc>(m * n);
  for (std::size_t l = 1; l < layers; ++l) {
    std::fill_n(part, m * n, Acc{});
    gemm_accumulate(part, n, a + l * kb, k, b + l * kb * n, n, m, n, kb);
    add_span(c, part, m * n);
  }
}

}  // namespace detail

/// C = A x B into a caller-provided row-major buffer. `a` is m x k, `b` is
/// k x n, `c` is m x n, and c must not overlap a or b. FP32/FP64 compute in
/// place; narrower types decode into arena buffers and narrow once.
template <Scalar T>
void numeric_gemm_into(const T* a, const T* b, T* c, std::size_t m, std::size_t n,
                       std::size_t k, std::size_t layers = 1) {
  using Acc = typename num_traits<T>::acc_t;
  KAMI_REQUIRE(layers >= 1 && k % layers == 0, "layers must evenly split k");
  KAMI_REQUIRE(!detail::spans_overlap(c, m * n, a, m * k) &&
                   !detail::spans_overlap(c, m * n, b, k * n),
               "numeric_gemm_into: C must not overlap A or B");

  if constexpr (std::is_same_v<T, Acc>) {
    std::fill_n(c, m * n, Acc{});
    detail::accumulate_layers(a, b, c, m, n, k, layers);
  } else {
    Arena& arena = Arena::tls();
    ArenaScope scope(arena);
    Acc* Af = arena.alloc<Acc>(m * k);
    Acc* Bf = arena.alloc<Acc>(k * n);
    Acc* Cacc = arena.alloc<Acc>(m * n);
    types::decode_span(a, Af, m * k);
    types::decode_span(b, Bf, k * n);
    std::fill_n(Cacc, m * n, Acc{});
    detail::accumulate_layers(Af, Bf, Cacc, m, n, k, layers);
    types::encode_span(Cacc, c, m * n);
  }
}

template <Scalar T>
Matrix<T> numeric_gemm(const Matrix<T>& A, const Matrix<T>& B, std::size_t layers = 1) {
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();
  KAMI_REQUIRE(B.rows() == k, "inner dimensions must agree");
  Matrix<T> C(m, n);
  numeric_gemm_into(A.data(), B.data(), C.data(), m, n, k, layers);
  return C;
}

}  // namespace kami::core
