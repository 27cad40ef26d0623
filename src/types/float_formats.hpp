// Software emulation of the reduced-precision formats KAMI's tensor cores
// consume: IEEE binary16 (FP16), bfloat16, FP8 E4M3, and the TF32 input
// rounding mode. All conversions use round-to-nearest-even and are exact bit
// models of the hardware behaviour (saturating E4M3, as NVIDIA converts).
//
// The MMA units accumulate in a wider type (float for FP16/BF16/FP8/TF32,
// double for FP64), matching Table 4's instruction variants.
#pragma once

#include <cstdint>
#include <limits>

namespace kami {

namespace detail {

/// Round |x| to a float format with `mant_bits` explicit mantissa bits,
/// minimum normal exponent `min_exp` (value 2^min_exp), largest finite
/// magnitude `max_norm`, using round-to-nearest-even. Magnitudes that round
/// above max_norm saturate to max_norm (hardware-convert behaviour for E4M3)
/// or become infinity when `has_inf` is true.
double quantize_magnitude(double x, int mant_bits, int min_exp, double max_norm,
                          bool has_inf) noexcept;

/// The original quantize_magnitude-based fp16 encoder, kept as the reference
/// rounding model for the fast integer encoder in fp16_t::encode. The two
/// must agree bit-for-bit on every float input (exhaustively sampled in
/// tests/types/decode_tables_test.cpp).
std::uint16_t fp16_encode_reference(float v) noexcept;

/// The original quantize_magnitude-based E4M3 encoder, kept as the reference
/// rounding model for the integer encoder in fp8_e4m3_t::encode, under the
/// same bit-for-bit contract as fp16_encode_reference.
std::uint8_t fp8_e4m3_encode_reference(float v) noexcept;

}  // namespace detail

/// IEEE 754 binary16. Storage is the exact bit pattern; arithmetic promotes
/// to float (the accumulate width of fp16 tensor-core MMA).
class fp16_t {
 public:
  fp16_t() = default;
  explicit fp16_t(float v) noexcept : bits_(encode(v)) {}
  explicit operator float() const noexcept { return decode(bits_); }

  static fp16_t from_bits(std::uint16_t b) noexcept {
    fp16_t h;
    h.bits_ = b;
    return h;
  }
  std::uint16_t bits() const noexcept { return bits_; }

  static std::uint16_t encode(float v) noexcept;
  static float decode(std::uint16_t b) noexcept;

 private:
  std::uint16_t bits_ = 0;
};

/// bfloat16: float with the mantissa truncated to 7 bits (RNE).
class bf16_t {
 public:
  bf16_t() = default;
  explicit bf16_t(float v) noexcept : bits_(encode(v)) {}
  explicit operator float() const noexcept { return decode(bits_); }

  static bf16_t from_bits(std::uint16_t b) noexcept {
    bf16_t h;
    h.bits_ = b;
    return h;
  }
  std::uint16_t bits() const noexcept { return bits_; }

  static std::uint16_t encode(float v) noexcept;
  static float decode(std::uint16_t b) noexcept;

 private:
  std::uint16_t bits_ = 0;
};

/// FP8 E4M3 (OCP / NVIDIA): 1 sign, 4 exponent (bias 7), 3 mantissa.
/// No infinities; S.1111.111 is NaN; max finite = 448. Conversions saturate.
class fp8_e4m3_t {
 public:
  fp8_e4m3_t() = default;
  explicit fp8_e4m3_t(float v) noexcept : bits_(encode(v)) {}
  explicit operator float() const noexcept { return decode(bits_); }

  static fp8_e4m3_t from_bits(std::uint8_t b) noexcept {
    fp8_e4m3_t h;
    h.bits_ = b;
    return h;
  }
  std::uint8_t bits() const noexcept { return bits_; }

  static std::uint8_t encode(float v) noexcept;
  static float decode(std::uint8_t b) noexcept;

  static constexpr float max_finite() noexcept { return 448.0f; }

 private:
  std::uint8_t bits_ = 0;
};

/// TF32 input rounding: a float whose mantissa is rounded (RNE) to 10 bits.
/// TF32 tensor-core MMA reads A/B through this rounding and accumulates in
/// full float precision.
float round_to_tf32(float v) noexcept;

/// Runtime tag for the precisions KAMI supports (Section 5.1 evaluates
/// FP64, TF32, FP16 and FP8; BF16 is included for completeness).
enum class Precision : std::uint8_t { FP64, FP32, TF32, FP16, BF16, FP8E4M3 };

/// Size in bytes of one stored element (the paper's s_e).
constexpr std::size_t element_bytes(Precision p) noexcept {
  switch (p) {
    case Precision::FP64: return 8;
    case Precision::FP32:
    case Precision::TF32: return 4;
    case Precision::FP16:
    case Precision::BF16: return 2;
    case Precision::FP8E4M3: return 1;
  }
  return 0;  // unreachable
}

const char* precision_name(Precision p) noexcept;

}  // namespace kami
