// Precomputed decode tables for the emulated storage formats, plus bulk
// (span) conversion entry points for the numeric fast path.
//
// The scalar conversions in float_formats.{hpp,cpp} are the reference
// rounding model; they stay authoritative. The tables here are *derived*
// from them at first use — fp16/bf16 enumerate all 2^16 bit patterns, E4M3
// all 2^8 — so a table lookup is bit-identical to the scalar decode by
// construction (exhaustively asserted in tests/types/decode_tables_test.cpp).
// That bit-identity is what lets the NumericsOnly path decode m*k + k*n
// operand elements through one indexed load each instead of the branchy
// ldexp-based scalar routine, without perturbing a single result bit.
//
// round_to_tf32_span is the vectorized form of round_to_tf32: the same
// integer round-to-nearest-even on the low 13 mantissa bits, applied a
// vector register at a time with non-finite lanes passed through unchanged.
// The FP16, BF16 and E4M3 narrowing spans are lane-wise transcriptions of
// the scalar integer encoders (fp16_t::encode, bf16_t::encode,
// fp8_e4m3_t::encode), compiled for the AVX2 and AVX-512F variants of
// util/host_isa.hpp and dispatched on the same probe as the host GEMM
// kernel. They use integer lane operations only, so no floating-point
// rounding mode or flush-to-zero state can make a lane differ from the
// scalar encoder; the baseline and KAMI_NO_SIMD builds run the scalar loop.
#pragma once

#include <array>
#include <cstddef>

#include "types/numeric_traits.hpp"
#include "util/host_isa.hpp"

namespace kami::types {

/// bits -> float tables, built lazily from the scalar reference decoders.
const std::array<float, 1u << 16>& fp16_decode_table();
const std::array<float, 1u << 16>& bf16_decode_table();
const std::array<float, 1u << 8>& fp8_e4m3_decode_table();

/// Vectorized round_to_tf32 over a span; src and dst may alias exactly
/// (in-place) but must not partially overlap. Bit-identical to calling the
/// scalar round_to_tf32 per element.
void round_to_tf32_span(const float* src, float* dst, std::size_t n) noexcept;

/// Bulk storage -> accumulator decode. The generic form is the plain scalar
/// loop (float/double/tf32 widenings are identity loads the compiler
/// vectorizes); the LUT formats specialize below.
template <Scalar T>
inline void decode_span(const T* src, typename num_traits<T>::acc_t* dst,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = num_traits<T>::to_acc(src[i]);
}

template <>
inline void decode_span<fp16_t>(const fp16_t* src, float* dst, std::size_t n) {
  const auto& tab = fp16_decode_table();
  for (std::size_t i = 0; i < n; ++i) dst[i] = tab[src[i].bits()];
}

template <>
inline void decode_span<bf16_t>(const bf16_t* src, float* dst, std::size_t n) {
  const auto& tab = bf16_decode_table();
  for (std::size_t i = 0; i < n; ++i) dst[i] = tab[src[i].bits()];
}

template <>
inline void decode_span<fp8_e4m3_t>(const fp8_e4m3_t* src, float* dst,
                                    std::size_t n) {
  const auto& tab = fp8_e4m3_decode_table();
  for (std::size_t i = 0; i < n; ++i) dst[i] = tab[src[i].bits()];
}

/// Bulk accumulator -> storage narrowing (the writeback phase). Generic form
/// defers to the scalar from_acc; FP16/BF16/E4M3 run the narrowing span of
/// the host_isa() variant, and TF32 narrows through the vectorized rounding
/// kernel in chunks.
template <Scalar T>
inline void encode_span(const typename num_traits<T>::acc_t* src, T* dst,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = num_traits<T>::from_acc(src[i]);
}

/// The FP16/BF16/E4M3 narrowing span compiled for one variant; `isa` must
/// not exceed host_isa(). HostIsa::Baseline is the scalar encoder loop.
/// Each element's bits equal the scalar encoder's. encode_span runs the
/// host_isa() variant; tests call each variant directly.
void encode_span_variant(HostIsa isa, const float* src, fp16_t* dst, std::size_t n) noexcept;
void encode_span_variant(HostIsa isa, const float* src, bf16_t* dst, std::size_t n) noexcept;
void encode_span_variant(HostIsa isa, const float* src, fp8_e4m3_t* dst,
                         std::size_t n) noexcept;

template <>
inline void encode_span<fp16_t>(const float* src, fp16_t* dst, std::size_t n) {
  encode_span_variant(host_isa(), src, dst, n);
}

template <>
inline void encode_span<bf16_t>(const float* src, bf16_t* dst, std::size_t n) {
  encode_span_variant(host_isa(), src, dst, n);
}

template <>
inline void encode_span<fp8_e4m3_t>(const float* src, fp8_e4m3_t* dst, std::size_t n) {
  encode_span_variant(host_isa(), src, dst, n);
}

template <>
inline void encode_span<tf32_t>(const float* src, tf32_t* dst, std::size_t n) {
  float chunk[256];
  for (std::size_t base = 0; base < n; base += 256) {
    const std::size_t w = n - base < 256 ? n - base : 256;
    round_to_tf32_span(src + base, chunk, w);
    for (std::size_t i = 0; i < w; ++i) dst[base + i] = tf32_t::from_rounded(chunk[i]);
  }
}

}  // namespace kami::types
