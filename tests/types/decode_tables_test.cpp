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
// the suite (DESIGN.md §12). The vectorized FP16/BF16/E4M3 narrowing spans
// are held to the scalar encoders the same way, in every variant this CPU
// runs (NarrowingSpans).
#include <gtest/gtest.h>

#include <algorithm>
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

// The FP16/BF16/E4M3 narrowing spans, in every variant this CPU runs,
// against the scalar encoder of each element, bit for bit.

struct Fp16Span {
  using T = fp16_t;
  static constexpr const char* kName = "fp16";
  static std::uint32_t scalar(float v) { return fp16_t::encode(v); }
};

struct Bf16Span {
  using T = bf16_t;
  static constexpr const char* kName = "bf16";
  static std::uint32_t scalar(float v) { return bf16_t::encode(v); }
};

struct Fp8Span {
  using T = fp8_e4m3_t;
  static constexpr const char* kName = "e4m3";
  static std::uint32_t scalar(float v) { return fp8_e4m3_t::encode(v); }
};

/// The variants this build compiles and this CPU runs, narrowest first.
std::vector<HostIsa> runnable_variants() {
  std::vector<HostIsa> out;
  for (const HostIsa isa : {HostIsa::Baseline, HostIsa::Avx2, HostIsa::Avx512f})
    if (isa <= host_isa()) out.push_back(isa);
  return out;
}

const char* variant_name(HostIsa isa) {
  return isa == HostIsa::Avx512f ? "avx512f" : isa == HostIsa::Avx2 ? "avx2" : "baseline";
}

/// Narrows src through one variant's span and compares each element with the
/// scalar encoder; counts mismatches instead of reporting each one.
template <typename F>
std::size_t span_mismatches(HostIsa isa, const std::vector<float>& src, std::size_t n) {
  std::vector<typename F::T> dst(n);
  encode_span_variant(isa, src.data(), dst.data(), n);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (dst[i].bits() == F::scalar(src[i])) continue;
    if (++bad <= 3)
      ADD_FAILURE() << F::kName << " " << variant_name(isa) << ": element " << i
                    << " of " << n << ", float bit pattern 0x" << std::hex
                    << float_bits(src[i]) << std::dec;
  }
  return bad;
}

/// `v`, its float neighbours, and the three negated.
void push_around(std::vector<float>& out, float v) {
  for (const float x : {v, std::nextafter(v, 0.0f),
                        std::nextafter(v, std::numeric_limits<float>::infinity())}) {
    out.push_back(x);
    out.push_back(-x);
  }
}

/// Directed inputs for all three formats: signed zeros, float subnormals,
/// the subnormal carries into 2^-14 (FP16) and 2^-6 (E4M3), every rounding
/// tie between consecutive FP16 and E4M3 values, the FP16 overflow edges,
/// E4M3 saturation, BF16's round-to-infinity, infinities and NaNs of both
/// signs with several payloads.
std::vector<float> directed_inputs() {
  std::vector<float> v;
  for (const std::uint32_t bits :
       {0x00000000u, 0x80000000u, 0x00000001u, 0x80000001u, 0x00000002u, 0x00400000u,
        0x807FFFFFu, 0x007FFFFFu, 0x7F800000u, 0xFF800000u, 0x7F800001u, 0xFF800001u,
        0x7FC00000u, 0xFFC00000u, 0x7FBFFFFFu, 0xFFFFFFFFu, 0x7FFFFFFFu, 0xFFC00001u,
        0x7FA00000u, 0xFF812345u, 0x7F7FFFFFu, 0xFF7FFFFFu, 0x7F7F8000u, 0x7F7F7FFFu,
        0x00800000u, 0x80800000u})
    v.push_back(std::bit_cast<float>(bits));
  // The subnormal carry: the tie between the largest subnormal and the
  // smallest normal of each format, and its neighbours.
  push_around(v, std::ldexp(2047.0f, -25));  // FP16: (1023.5) * 2^-24
  push_around(v, std::ldexp(1.0f, -14));
  push_around(v, std::ldexp(15.0f, -10));    // E4M3: 7.5 * 2^-9
  push_around(v, std::ldexp(1.0f, -6));
  // Underflow ties and the smallest subnormals.
  push_around(v, std::ldexp(1.0f, -25));
  push_around(v, std::ldexp(1.0f, -24));
  push_around(v, std::ldexp(1.0f, -10));
  push_around(v, std::ldexp(1.0f, -9));
  // FP16 overflow: the max finite, the tie to infinity, the first float
  // that always overflows; E4M3 saturation at 448 and its tie 464.
  for (const float x : {65504.0f, 65520.0f, 65536.0f, 448.0f, 464.0f, 480.0f}) push_around(v, x);
  // Every tie between consecutive finite values, and the values themselves.
  const auto& fp16 = fp16_decode_table();
  for (std::size_t b = 0; b + 1 < (1u << 15); ++b) {
    const float lo = fp16[b], hi = fp16[b + 1];
    if (!std::isfinite(hi)) break;
    push_around(v, lo + (hi - lo) / 2.0f);
    v.push_back(lo);
  }
  const auto& e4m3 = fp8_e4m3_decode_table();
  for (std::size_t b = 0; b + 1 < (1u << 7); ++b) {
    const float lo = e4m3[b], hi = e4m3[b + 1];
    if (std::isnan(hi)) break;
    push_around(v, lo + (hi - lo) / 2.0f);
    v.push_back(lo);
  }
  // BF16 ties: a float halfway between two bf16 values, even and odd.
  for (const std::uint32_t bits : {0x3F808000u, 0x3F818000u, 0x00008000u, 0x00018000u,
                                   0x7F7F8000u, 0x7F7E8000u})
    push_around(v, std::bit_cast<float>(bits));
  return v;
}

template <typename F>
void expect_directed_inputs_match(const std::vector<float>& inputs) {
  for (const HostIsa isa : runnable_variants()) {
    // Every offset of the inputs within a vector: each value meets every lane
    // position, and at the end of the span the scalar tail.
    for (std::size_t shift = 0; shift < 16; ++shift) {
      std::vector<float> src(shift, 1.0f);
      src.insert(src.end(), inputs.begin(), inputs.end());
      EXPECT_EQ(span_mismatches<F>(isa, src, src.size()), 0u)
          << F::kName << " " << variant_name(isa) << " shift " << shift;
    }
  }
}

TEST(NarrowingSpans, DirectedInputsMatchScalarEncoders) {
  const auto inputs = directed_inputs();
  expect_directed_inputs_match<Fp16Span>(inputs);
  expect_directed_inputs_match<Bf16Span>(inputs);
  expect_directed_inputs_match<Fp8Span>(inputs);
}

// 2^24 seeded random float bit patterns per format (NaNs, infinities and
// subnormals land in the sample), in spans whose lengths cover every
// remainder modulo 16, the widest variant's FP32 lanes.
template <typename F>
void expect_random_bit_patterns_match(std::uint64_t seed) {
  constexpr std::size_t kTotal = std::size_t{1} << 24, kChunk = std::size_t{1} << 14;
  for (const HostIsa isa : runnable_variants()) {
    Rng rng(seed);
    std::vector<float> src(kChunk);
    std::size_t done = 0, bad = 0;
    for (std::size_t round = 0; done < kTotal; ++round) {
      const std::size_t n = std::min(kChunk - round % 16, kTotal - done);
      for (std::size_t i = 0; i < n; ++i)
        src[i] = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next()));
      bad += span_mismatches<F>(isa, src, n);
      done += n;
    }
    EXPECT_EQ(bad, 0u) << F::kName << " " << variant_name(isa);
  }
}

TEST(NarrowingSpans, RandomBitPatternsMatchScalarEncoders) {
  expect_random_bit_patterns_match<Fp16Span>(101);
  expect_random_bit_patterns_match<Bf16Span>(102);
  expect_random_bit_patterns_match<Fp8Span>(103);
}

// Short spans: every length 0..48, so each variant runs spans that are all
// tail, one vector plus a tail, and several vectors.
TEST(NarrowingSpans, EveryShortLengthMatches) {
  Rng rng(104);
  for (std::size_t n = 0; n <= 48; ++n) {
    std::vector<float> src(n);
    for (float& x : src) x = static_cast<float>(rng.uniform(-70000.0, 70000.0));
    for (const HostIsa isa : runnable_variants()) {
      EXPECT_EQ(span_mismatches<Fp16Span>(isa, src, n), 0u) << n;
      EXPECT_EQ(span_mismatches<Bf16Span>(isa, src, n), 0u) << n;
      EXPECT_EQ(span_mismatches<Fp8Span>(isa, src, n), 0u) << n;
    }
  }
}

}  // namespace
}  // namespace kami::types
