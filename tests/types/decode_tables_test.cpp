// Exhaustive bit-level checks for the precision-decode LUTs and the
// vectorized conversions backing the numeric fast path.
//
// Every assertion here is over *bit patterns*, not values: the LUTs and the
// fast encoders are only admissible if they are indistinguishable from
// the scalar reference conversions on every representable input, NaNs,
// infinities and saturation included. The input spaces are small enough to
// enumerate completely (2^16 for fp16/bf16, 2^8 for E4M3), so we do. The
// fast fp16 and E4M3 encoders take float inputs (2^32 patterns), so they get
// directed coverage plus a random sample; the full 2^32 sweep runs outside
// the suite (DESIGN.md §12).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "types/decode_tables.hpp"
#include "util/rng.hpp"

namespace kami::types {
namespace {

std::uint32_t float_bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// Decode comparisons must treat two NaNs with the same payload as equal and
// distinguish +0 from -0, so compare the float *bit patterns*.
void expect_same_float_bits(float a, float b, std::uint32_t input_bits) {
  EXPECT_EQ(float_bits(a), float_bits(b))
      << "input bit pattern 0x" << std::hex << input_bits;
}

TEST(DecodeTables, Fp16TableMatchesScalarDecodeExhaustively) {
  const auto& tab = fp16_decode_table();
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    const auto bits = static_cast<std::uint16_t>(b);
    expect_same_float_bits(tab[b], fp16_t::decode(bits), b);
  }
}

TEST(DecodeTables, Bf16TableMatchesScalarDecodeExhaustively) {
  const auto& tab = bf16_decode_table();
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    const auto bits = static_cast<std::uint16_t>(b);
    expect_same_float_bits(tab[b], bf16_t::decode(bits), b);
  }
}

TEST(DecodeTables, Fp8E4M3TableMatchesScalarDecodeExhaustively) {
  const auto& tab = fp8_e4m3_decode_table();
  for (std::uint32_t b = 0; b < (1u << 8); ++b) {
    const auto bits = static_cast<std::uint8_t>(b);
    expect_same_float_bits(tab[b], fp8_e4m3_t::decode(bits), b);
  }
}

// Decode -> encode must return the original bit pattern for every canonical
// stored value (NaN payloads may legitimately canonicalize, so NaNs are
// checked for NaN-ness rather than payload identity).
TEST(DecodeTables, Fp16TableRoundTripsThroughEncode) {
  const auto& tab = fp16_decode_table();
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    const float decoded = tab[b];
    if (std::isnan(decoded)) {
      EXPECT_TRUE(std::isnan(fp16_t::decode(fp16_t::encode(decoded))));
      continue;
    }
    EXPECT_EQ(fp16_t::encode(decoded), static_cast<std::uint16_t>(b))
        << "fp16 bits 0x" << std::hex << b;
  }
}

TEST(DecodeTables, Bf16TableRoundTripsThroughEncode) {
  const auto& tab = bf16_decode_table();
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    const float decoded = tab[b];
    if (std::isnan(decoded)) {
      EXPECT_TRUE(std::isnan(bf16_t::decode(bf16_t::encode(decoded))));
      continue;
    }
    EXPECT_EQ(bf16_t::encode(decoded), static_cast<std::uint16_t>(b))
        << "bf16 bits 0x" << std::hex << b;
  }
}

TEST(DecodeTables, Fp8E4M3TableRoundTripsThroughEncode) {
  const auto& tab = fp8_e4m3_decode_table();
  for (std::uint32_t b = 0; b < (1u << 8); ++b) {
    const float decoded = tab[b];
    if (std::isnan(decoded)) {
      EXPECT_TRUE(std::isnan(fp8_e4m3_t::decode(fp8_e4m3_t::encode(decoded))));
      continue;
    }
    EXPECT_EQ(fp8_e4m3_t::encode(decoded), static_cast<std::uint8_t>(b))
        << "e4m3 bits 0x" << std::hex << b;
  }
}

// The fast integer encoders against the quantize_magnitude references they
// replaced. Directed coverage, shared by both formats: every representable
// value and its float neighbours (exercises all rounding boundaries), every
// rounding midpoint, the special values, then a large random sweep over raw
// float bit patterns (NaNs and denormals land in the sample). Both encoders
// canonicalize NaN to the same sign-carrying pattern as their reference, so
// every comparison is bit for bit, NaNs included.

// One narrowing format: its fast encoder, the reference it replaced and its
// decode table.
struct Fp16Codec {
  static constexpr const char* kName = "fp16";
  static constexpr std::uint32_t kPositivePatterns = 1u << 15;
  static std::uint16_t fast(float v) { return fp16_t::encode(v); }
  static std::uint16_t reference(float v) { return detail::fp16_encode_reference(v); }
  static const auto& table() { return fp16_decode_table(); }
};

struct Fp8Codec {
  static constexpr const char* kName = "e4m3";
  static constexpr std::uint32_t kPositivePatterns = 1u << 7;
  static std::uint8_t fast(float v) { return fp8_e4m3_t::encode(v); }
  static std::uint8_t reference(float v) { return detail::fp8_e4m3_encode_reference(v); }
  static const auto& table() { return fp8_e4m3_decode_table(); }
};

template <typename Codec>
void expect_encode_matches_reference(float v) {
  EXPECT_EQ(Codec::fast(v), Codec::reference(v))
      << Codec::kName << ", float bit pattern 0x" << std::hex << float_bits(v);
}

template <typename Codec>
void expect_matches_on_all_values_and_neighbours() {
  const auto& tab = Codec::table();
  for (const float v : tab) {
    if (std::isnan(v)) continue;
    expect_encode_matches_reference<Codec>(v);
    if (std::isinf(v)) continue;
    expect_encode_matches_reference<Codec>(
        std::nextafter(v, std::numeric_limits<float>::infinity()));
    expect_encode_matches_reference<Codec>(
        std::nextafter(v, -std::numeric_limits<float>::infinity()));
  }
}

// Midpoint between consecutive finite values of one sign: exercises the
// ties-to-even choice in both the normal and subnormal ranges.
template <typename Codec>
void expect_matches_on_rounding_midpoints() {
  const auto& tab = Codec::table();
  for (std::uint32_t b = 0; b + 1 < Codec::kPositivePatterns; ++b) {
    const float lo = tab[b], hi = tab[b + 1];
    if (!std::isfinite(lo) || !std::isfinite(hi)) continue;
    const float mid = lo + (hi - lo) / 2.0f;
    expect_encode_matches_reference<Codec>(mid);
    expect_encode_matches_reference<Codec>(-mid);
  }
}

// `v`, its float neighbours, and the negated three.
template <typename Codec>
void expect_matches_around(float v) {
  for (const float x : {v, std::nextafter(v, 0.0f),
                        std::nextafter(v, std::numeric_limits<float>::infinity())}) {
    expect_encode_matches_reference<Codec>(x);
    expect_encode_matches_reference<Codec>(-x);
  }
}

template <typename Codec>
void expect_matches_on_special_values() {
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  for (const float v : {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::max(), std::numeric_limits<float>::lowest(),
                        std::numeric_limits<float>::min(), -std::numeric_limits<float>::min(),
                        std::numeric_limits<float>::denorm_min(),
                        -std::numeric_limits<float>::denorm_min(),
                        std::bit_cast<float>(0x007FFFFFu), std::bit_cast<float>(0x807FFFFFu),
                        qnan, -qnan, std::bit_cast<float>(0xFFC00001u),
                        std::bit_cast<float>(0x7F800001u)})
    expect_encode_matches_reference<Codec>(v);
}

template <typename Codec>
void expect_matches_on_random_bit_patterns(std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < 2'000'000; ++i)
    expect_encode_matches_reference<Codec>(
        std::bit_cast<float>(static_cast<std::uint32_t>(rng.next())));
}

TEST(Fp16FastEncode, MatchesReferenceOnAllHalfValuesAndNeighbours) {
  expect_matches_on_all_values_and_neighbours<Fp16Codec>();
}

TEST(Fp16FastEncode, MatchesReferenceOnRoundingMidpoints) {
  expect_matches_on_rounding_midpoints<Fp16Codec>();
  // The overflow midpoint: 65520 rounds to infinity, anything below to the
  // max finite half.
  expect_matches_around<Fp16Codec>(65520.0f);
  // The underflow midpoint: 2^-25 is the tie between 0 and the smallest
  // subnormal; ties-to-even keeps 0.
  expect_matches_around<Fp16Codec>(std::ldexp(1.0f, -25));
}

TEST(Fp16FastEncode, MatchesReferenceOnSpecialValues) {
  expect_matches_on_special_values<Fp16Codec>();
  // NaN keeps its sign and stays NaN.
  const float neg_nan = std::bit_cast<float>(0xFFC00001u);
  EXPECT_EQ(fp16_t::encode(neg_nan) & 0x8000u, 0x8000u);
  EXPECT_TRUE(std::isnan(fp16_t::decode(fp16_t::encode(neg_nan))));
  EXPECT_EQ(fp16_t::encode(std::numeric_limits<float>::infinity()), 0x7C00u);
}

TEST(Fp16FastEncode, MatchesReferenceOnRandomBitPatterns) {
  expect_matches_on_random_bit_patterns<Fp16Codec>(20260808);
}

TEST(Fp8FastEncode, MatchesReferenceOnAllE4M3ValuesAndNeighbours) {
  expect_matches_on_all_values_and_neighbours<Fp8Codec>();
}

TEST(Fp8FastEncode, MatchesReferenceOnRoundingMidpoints) {
  expect_matches_on_rounding_midpoints<Fp8Codec>();
  // Saturation: 448 is the max finite; 464, the midpoint to the next
  // (unrepresentable) binade step, and everything above saturate to 448.
  expect_matches_around<Fp8Codec>(448.0f);
  expect_matches_around<Fp8Codec>(464.0f);
  EXPECT_EQ(fp8_e4m3_t::encode(464.0f), 0x7Eu);
  EXPECT_EQ(fp8_e4m3_t::encode(std::nextafter(464.0f, 1000.0f)), 0x7Eu);
  EXPECT_EQ(fp8_e4m3_t::encode(-std::nextafter(464.0f, 0.0f)), 0xFEu);
  // The underflow midpoint: 2^-10 is the tie between 0 and the smallest
  // subnormal 2^-9; ties-to-even keeps 0, anything above rounds up.
  expect_matches_around<Fp8Codec>(std::ldexp(1.0f, -10));
  EXPECT_EQ(fp8_e4m3_t::encode(std::ldexp(1.0f, -10)), 0x00u);
  EXPECT_EQ(fp8_e4m3_t::encode(std::nextafter(std::ldexp(1.0f, -10), 1.0f)), 0x01u);
  // The subnormal/normal boundary: the carry out of m = 7 lands on 2^-6.
  expect_matches_around<Fp8Codec>(std::ldexp(1.0f, -6));
  expect_matches_around<Fp8Codec>(std::ldexp(15.0f, -10));
}

TEST(Fp8FastEncode, MatchesReferenceOnSpecialValues) {
  expect_matches_on_special_values<Fp8Codec>();
  // E4M3 has no infinity: infinite inputs saturate to the max finite (448),
  // sign preserved (hardware-convert semantics). NaN keeps its sign.
  EXPECT_EQ(fp8_e4m3_t::encode(std::numeric_limits<float>::infinity()), 0x7Eu);
  EXPECT_EQ(fp8_e4m3_t::encode(-std::numeric_limits<float>::infinity()), 0xFEu);
  EXPECT_EQ(fp8_e4m3_t::encode(std::numeric_limits<float>::quiet_NaN()), 0x7Fu);
  EXPECT_EQ(fp8_e4m3_t::encode(std::bit_cast<float>(0xFFC00001u)), 0xFFu);
  EXPECT_EQ(fp8_e4m3_t::encode(-0.0f), 0x80u);
  EXPECT_EQ(fp8_e4m3_t::encode(-std::numeric_limits<float>::denorm_min()), 0x80u);
}

TEST(Fp8FastEncode, MatchesReferenceOnRandomBitPatterns) {
  expect_matches_on_random_bit_patterns<Fp8Codec>(20261018);
}

// round_to_tf32_span vs the scalar round_to_tf32, over spans long enough to
// hit the vector body and every tail length, with NaN/inf lanes mixed in.
TEST(RoundToTf32Span, MatchesScalarIncludingNonFiniteLanes) {
  Rng rng(7);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{8}, std::size_t{9}, std::size_t{15},
                        std::size_t{64}, std::size_t{257}, std::size_t{1000}}) {
    std::vector<float> src(n), dst(n, -1.0f);
    for (std::size_t i = 0; i < n; ++i) {
      switch (i % 5) {
        case 0: src[i] = static_cast<float>(rng.uniform(-1e6, 1e6)); break;
        case 1: src[i] = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next())); break;
        case 2: src[i] = std::numeric_limits<float>::infinity(); break;
        case 3: src[i] = std::bit_cast<float>(static_cast<std::uint32_t>(0x7FC00000u | (i & 0xFFu))); break;
        default: src[i] = -std::ldexp(1.0f, -(static_cast<int>(i) % 140)); break;
      }
    }
    round_to_tf32_span(src.data(), dst.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      expect_same_float_bits(dst[i], round_to_tf32(src[i]), float_bits(src[i]));
    // In-place operation is part of the contract.
    std::vector<float> inplace = src;
    round_to_tf32_span(inplace.data(), inplace.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      expect_same_float_bits(inplace[i], round_to_tf32(src[i]), float_bits(src[i]));
  }
}

// decode_span / encode_span against their element-wise definitions for every
// storage type, across vector-unfriendly lengths.
template <Scalar T>
void check_spans(std::size_t n, std::uint64_t seed) {
  using Acc = typename num_traits<T>::acc_t;
  Rng rng(seed);
  std::vector<T> src(n);
  for (auto& v : src) v = T{static_cast<Acc>(rng.uniform(-100.0, 100.0))};
  std::vector<Acc> dec(n, Acc{-1});
  decode_span(src.data(), dec.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(dec[i])),
              std::bit_cast<std::uint64_t>(static_cast<double>(num_traits<T>::to_acc(src[i]))));
  std::vector<T> enc(n);
  encode_span(dec.data(), enc.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(num_traits<T>::to_acc(enc[i]))),
              std::bit_cast<std::uint64_t>(
                  static_cast<double>(num_traits<T>::to_acc(num_traits<T>::from_acc(dec[i])))));
}

TEST(SpanConversions, MatchElementwiseForEveryStorageType) {
  for (std::size_t n : {std::size_t{1}, std::size_t{17}, std::size_t{255},
                        std::size_t{256}, std::size_t{259}}) {
    check_spans<fp16_t>(n, 11);
    check_spans<bf16_t>(n, 12);
    check_spans<fp8_e4m3_t>(n, 13);
    check_spans<tf32_t>(n, 14);
    check_spans<float>(n, 15);
    check_spans<double>(n, 16);
  }
}

}  // namespace
}  // namespace kami::types
