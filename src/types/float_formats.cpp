#include "types/float_formats.hpp"

#include <bit>
#include <cmath>

namespace kami {

namespace detail {

double quantize_magnitude(double x, int mant_bits, int min_exp, double max_norm,
                          bool has_inf) noexcept {
  if (x == 0.0) return 0.0;
  int e = std::ilogb(x);
  if (e < min_exp) e = min_exp;  // subnormal range: fixed quantum 2^(min_exp - mant_bits)
  const double quantum = std::ldexp(1.0, e - mant_bits);
  double q = std::nearbyint(x / quantum) * quantum;  // RNE under default rounding mode
  // Rounding can push into the next binade (e.g. 1.111..1 -> 10.0); that is a
  // representable value in the wider binade, so no fixup is needed — only the
  // overflow check below matters.
  if (q > max_norm) {
    return has_inf ? std::numeric_limits<double>::infinity() : max_norm;
  }
  return q;
}

std::uint16_t fp16_encode_reference(float v) noexcept {
  const std::uint32_t fbits = std::bit_cast<std::uint32_t>(v);
  const std::uint16_t sign = static_cast<std::uint16_t>((fbits >> 16) & 0x8000u);
  if (std::isnan(v)) return static_cast<std::uint16_t>(sign | 0x7E00u);
  // Infinite inputs must bypass quantize_magnitude: ilogb(inf) is INT_MAX,
  // which drives the quantum through ldexp overflow into inf/inf = NaN and
  // then an out-of-range float->int cast (UB). Encode the infinity directly.
  if (std::isinf(v)) return static_cast<std::uint16_t>(sign | 0x7C00u);
  const double mag = std::fabs(static_cast<double>(v));
  const double q = detail::quantize_magnitude(mag, 10, -14, 65504.0, /*has_inf=*/true);
  if (std::isinf(q)) return static_cast<std::uint16_t>(sign | 0x7C00u);
  if (q == 0.0) return sign;
  int e = std::ilogb(q);
  if (e < -14) {
    // Subnormal: value = m * 2^-24, 0 < m < 1024.
    const auto m = static_cast<std::uint16_t>(std::ldexp(q, 24));
    return static_cast<std::uint16_t>(sign | m);
  }
  const auto mant =
      static_cast<std::uint16_t>(std::ldexp(q, 10 - e) - 1024.0);  // strip implicit 1
  const auto biased = static_cast<std::uint16_t>(e + 15);
  return static_cast<std::uint16_t>(sign | static_cast<std::uint16_t>(biased << 10) | mant);
}

std::uint8_t fp8_e4m3_encode_reference(float v) noexcept {
  const std::uint32_t fbits = std::bit_cast<std::uint32_t>(v);
  const std::uint8_t sign = static_cast<std::uint8_t>((fbits >> 24) & 0x80u);
  if (std::isnan(v)) return static_cast<std::uint8_t>(sign | 0x7Fu);
  // E4M3 has no infinity and hardware convert saturates, so an infinite
  // input becomes the max finite (448). It must not reach quantize_magnitude
  // (ilogb(inf) = INT_MAX leads to a NaN and an out-of-range cast).
  if (std::isinf(v)) return static_cast<std::uint8_t>(sign | 0x7Eu);
  const double mag = std::fabs(static_cast<double>(v));
  // E4M3 has no infinity: conversions saturate to the max finite value.
  const double q = detail::quantize_magnitude(mag, 3, -6, 448.0, /*has_inf=*/false);
  if (q == 0.0) return sign;
  int e = std::ilogb(q);
  if (e < -6) {
    // Subnormal: value = m * 2^-9, 0 < m < 8.
    const auto m = static_cast<std::uint8_t>(std::ldexp(q, 9));
    return static_cast<std::uint8_t>(sign | m);
  }
  const auto mant = static_cast<std::uint8_t>(std::ldexp(q, 3 - e) - 8.0);
  const auto biased = static_cast<std::uint8_t>(e + 7);
  return static_cast<std::uint8_t>(sign | static_cast<std::uint8_t>(biased << 3) | mant);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// fp16
// ---------------------------------------------------------------------------

// Pure integer float->binary16 conversion, round-to-nearest-even. The
// narrowing is a single rounding from the float significand, so the result
// equals detail::fp16_encode_reference on every input (no double rounding is
// possible). ~20x faster than the ilogb/nearbyint/ldexp reference, which
// matters because the numeric fast path pays one encode per C element.
std::uint16_t fp16_t::encode(float v) noexcept {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(v);
  const auto sign = static_cast<std::uint16_t>((f >> 16) & 0x8000u);
  const std::uint32_t abs = f & 0x7FFFFFFFu;
  if (abs > 0x7F800000u) return static_cast<std::uint16_t>(sign | 0x7E00u);  // NaN
  // |v| >= 65536 always rounds past the 65504 max finite -> infinity. Values
  // in [65520, 65536) overflow through the rounding carry in the normal
  // branch below, which lands exactly on the 0x7C00 infinity pattern.
  if (abs >= 0x47800000u) return static_cast<std::uint16_t>(sign | 0x7C00u);
  if (abs >= 0x38800000u) {
    // Normal half range [2^-14, 65536): the target ulp sits at float bit 13;
    // rebias the exponent (127-15 = 112) and apply RNE on the low 13 bits.
    const std::uint32_t lsb = (abs >> 13) & 1u;
    const std::uint32_t rounded = abs + 0x0FFFu + lsb;
    return static_cast<std::uint16_t>(sign | ((rounded >> 13) - (112u << 10)));
  }
  // Subnormal-or-zero result: |v| < 2^-14 quantizes to m * 2^-24. A carry to
  // m = 1024 spills into the 0x0400 exponent field, which is exactly the
  // encoding of 2^-14 — no fixup needed.
  const std::uint32_t e = abs >> 23;
  if (e < 102) return sign;  // |v| <= 2^-25 rounds to (signed) zero under RNE
  const std::uint32_t sig = (abs & 0x007FFFFFu) | 0x00800000u;
  const std::uint32_t shift = 126u - e;  // in [14, 24]
  const std::uint32_t m0 = sig >> shift;
  const std::uint32_t low = sig & ((1u << shift) - 1u);
  const std::uint32_t half = 1u << (shift - 1u);
  const std::uint32_t m = m0 + ((low > half || (low == half && (m0 & 1u))) ? 1u : 0u);
  return static_cast<std::uint16_t>(sign | m);
}

float fp16_t::decode(std::uint16_t b) noexcept {
  const float sign = (b & 0x8000u) ? -1.0f : 1.0f;
  const int biased = (b >> 10) & 0x1F;
  const int mant = b & 0x3FF;
  if (biased == 0x1F) {
    if (mant != 0) return std::numeric_limits<float>::quiet_NaN();
    return sign * std::numeric_limits<float>::infinity();
  }
  if (biased == 0) return sign * std::ldexp(static_cast<float>(mant), -24);
  return sign * std::ldexp(static_cast<float>(1024 + mant), biased - 15 - 10);
}

// ---------------------------------------------------------------------------
// bf16
// ---------------------------------------------------------------------------

std::uint16_t bf16_t::encode(float v) noexcept {
  std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
  if (std::isnan(v)) return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
  // Round-to-nearest-even on the 16 discarded bits.
  const std::uint32_t lsb = (bits >> 16) & 1u;
  bits += 0x7FFFu + lsb;
  return static_cast<std::uint16_t>(bits >> 16);
}

float bf16_t::decode(std::uint16_t b) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(b) << 16);
}

// ---------------------------------------------------------------------------
// fp8 e4m3
// ---------------------------------------------------------------------------

// Pure integer float->E4M3 conversion, round-to-nearest-even, saturating —
// the same single rounding from the float significand as fp16_t::encode, so
// the result equals detail::fp8_e4m3_encode_reference on every float input
// (all 2^32 bit patterns checked once; directed and random coverage in
// tests/types/decode_tables_test.cpp). Every FP8 operand and C element
// narrows through here, so it must not cost a double-precision round trip.
std::uint8_t fp8_e4m3_t::encode(float v) noexcept {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(v);
  const auto sign = static_cast<std::uint8_t>((f >> 24) & 0x80u);
  const std::uint32_t abs = f & 0x7FFFFFFFu;
  if (abs > 0x7F800000u) return static_cast<std::uint8_t>(sign | 0x7Fu);  // NaN
  // E4M3 has no infinity and hardware convert saturates: |v| >= 448 (the max
  // finite), infinity included, becomes 448. Below 448 nothing rounds past it.
  if (abs >= 0x43E00000u) return static_cast<std::uint8_t>(sign | 0x7Eu);
  if (abs >= 0x3C800000u) {
    // Normal range [2^-6, 448): the target ulp sits at float bit 20; rebias
    // the exponent (127-7 = 120) and apply RNE on the low 20 bits.
    const std::uint32_t lsb = (abs >> 20) & 1u;
    const std::uint32_t rounded = abs + 0x7FFFFu + lsb;
    return static_cast<std::uint8_t>(sign | ((rounded >> 20) - (120u << 3)));
  }
  // Subnormal-or-zero result: |v| < 2^-6 quantizes to m * 2^-9. A carry to
  // m = 8 spills into the 0x08 exponent field, which is exactly the encoding
  // of 2^-6 — no fixup needed.
  const std::uint32_t e = abs >> 23;
  if (e < 117) return sign;  // |v| < 2^-10 rounds to (signed) zero under RNE
  const std::uint32_t sig = (abs & 0x007FFFFFu) | 0x00800000u;
  const std::uint32_t shift = 141u - e;  // in [21, 24]
  const std::uint32_t m0 = sig >> shift;
  const std::uint32_t low = sig & ((1u << shift) - 1u);
  const std::uint32_t half = 1u << (shift - 1u);
  const std::uint32_t m = m0 + ((low > half || (low == half && (m0 & 1u))) ? 1u : 0u);
  return static_cast<std::uint8_t>(sign | m);
}

float fp8_e4m3_t::decode(std::uint8_t b) noexcept {
  const float sign = (b & 0x80u) ? -1.0f : 1.0f;
  const int biased = (b >> 3) & 0xF;
  const int mant = b & 0x7;
  if (biased == 0xF && mant == 0x7) return std::numeric_limits<float>::quiet_NaN();
  if (biased == 0) return sign * std::ldexp(static_cast<float>(mant), -9);
  return sign * std::ldexp(static_cast<float>(8 + mant), biased - 7 - 3);
}

// ---------------------------------------------------------------------------
// tf32
// ---------------------------------------------------------------------------

float round_to_tf32(float v) noexcept {
  if (!std::isfinite(v)) return v;
  std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
  // Keep 10 mantissa bits: RNE on the 13 discarded bits.
  const std::uint32_t lsb = (bits >> 13) & 1u;
  bits += 0x0FFFu + lsb;
  bits &= ~0x1FFFu;
  return std::bit_cast<float>(bits);
}

const char* precision_name(Precision p) noexcept {
  switch (p) {
    case Precision::FP64: return "FP64";
    case Precision::FP32: return "FP32";
    case Precision::TF32: return "TF32";
    case Precision::FP16: return "FP16";
    case Precision::BF16: return "BF16";
    case Precision::FP8E4M3: return "FP8";
  }
  return "?";
}

}  // namespace kami
