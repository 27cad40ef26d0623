#include "types/decode_tables.hpp"

#include <cstring>

namespace kami::types {

const std::array<float, 1u << 16>& fp16_decode_table() {
  static const auto table = [] {
    std::array<float, 1u << 16> t{};
    for (std::uint32_t b = 0; b < (1u << 16); ++b)
      t[b] = fp16_t::decode(static_cast<std::uint16_t>(b));
    return t;
  }();
  return table;
}

const std::array<float, 1u << 16>& bf16_decode_table() {
  static const auto table = [] {
    std::array<float, 1u << 16> t{};
    for (std::uint32_t b = 0; b < (1u << 16); ++b)
      t[b] = bf16_t::decode(static_cast<std::uint16_t>(b));
    return t;
  }();
  return table;
}

const std::array<float, 1u << 8>& fp8_e4m3_decode_table() {
  static const auto table = [] {
    std::array<float, 1u << 8> t{};
    for (std::uint32_t b = 0; b < (1u << 8); ++b)
      t[b] = fp8_e4m3_t::decode(static_cast<std::uint8_t>(b));
    return t;
  }();
  return table;
}

#ifdef KAMI_NUMERIC_SIMD

namespace {
typedef std::uint32_t vu32 __attribute__((vector_size(32)));

inline vu32 splat_u32(std::uint32_t x) noexcept {
  vu32 v{};
  for (int l = 0; l < 8; ++l) v[l] = x;
  return v;
}
}  // namespace

void round_to_tf32_span(const float* src, float* dst, std::size_t n) noexcept {
  // Lane-wise transcription of the scalar round_to_tf32: RNE on the low 13
  // mantissa bits for finite lanes, inf/NaN lanes pass through untouched
  // (payload preserved). Integer arithmetic only, so every lane is exact.
  const vu32 exp_mask = splat_u32(0x7F800000u);
  const vu32 round_bias = splat_u32(0x0FFFu);
  const vu32 ones = splat_u32(1u);
  const vu32 keep_mask = splat_u32(~0x1FFFu);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vu32 bits;
    std::memcpy(&bits, src + i, sizeof(bits));
    const vu32 lsb = (bits >> 13) & ones;
    const vu32 rounded = (bits + round_bias + lsb) & keep_mask;
    // Comparison lanes are all-ones (finite) / all-zeros (inf or NaN).
    const vu32 fmask = vu32((bits & exp_mask) != exp_mask);
    const vu32 out = (rounded & fmask) | (bits & ~fmask);
    std::memcpy(dst + i, &out, sizeof(out));
  }
  for (; i < n; ++i) dst[i] = round_to_tf32(src[i]);
}

#else  // KAMI_NO_SIMD

void round_to_tf32_span(const float* src, float* dst, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = round_to_tf32(src[i]);
}

#endif

namespace {

// The narrowing encoders, one struct per format: `scalar` is the scalar
// encoder, and `lanes` (x86 variants only) its lane-wise transcription on
// 32-bit lanes holding float bits. Each branch of the scalar encoder is
// computed in every lane and the lanes pick theirs with masks, in the
// scalar encoder's precedence. Unsigned lane arithmetic wraps, and every
// shift count is clamped to [0, 31], so the lanes a branch does not select
// may hold any value but never undefined behaviour.

#ifdef KAMI_HOST_X86_VARIANTS
/// `a` in the lanes where `mask` (a lane comparison) holds, `b` elsewhere.
template <typename V, typename M>
[[gnu::always_inline]] inline V select(M mask, V a, V b) noexcept {
  return mask ? a : b;
}

/// Round-to-nearest-even of sig >> shift for sig < 2^24: the shifted-out
/// bits round up past the half point, and at the half point up to even,
/// which is the scalar encoders' subnormal rounding
/// (m0 + (low > half || (low == half && (m0 & 1)))). The shift is clamped
/// to 31; any shift of 25 or more rounds to 0, which is the scalar
/// encoders' early return for inputs below half the smallest subnormal.
template <typename V>
[[gnu::always_inline]] inline V shift_rne(V sig, V shift) noexcept {
  shift = select(shift < 31u, shift, V{} + 31u);
  const V half = ((V{} + 1u) << shift) >> 1u;
  return (sig + (half - 1u) + ((sig >> shift) & 1u)) >> shift;
}
#endif

struct Fp16Encoder {
  using Out = fp16_t;
  static fp16_t scalar(float v) noexcept { return fp16_t{v}; }
#ifdef KAMI_HOST_X86_VARIANTS
  /// fp16_t::encode, lane-wise.
  template <typename V>
  [[gnu::always_inline]] static V lanes(V f) noexcept {
    const V sign = (f >> 16) & 0x8000u;
    const V abs = f & 0x7FFFFFFFu;
    const V normal = ((abs + 0x0FFFu + ((abs >> 13) & 1u)) >> 13) - (112u << 10);
    const V e = abs >> 23;
    const V sig = (abs & 0x007FFFFFu) | 0x00800000u;
    V out = shift_rne(sig, 126u - e);  // |v| < 2^-14: subnormal or zero
    out = select(abs >= 0x38800000u, normal, out);
    out = select(abs >= 0x47800000u, V{} + 0x7C00u, out);
    out = select(abs > 0x7F800000u, V{} + 0x7E00u, out);
    return sign | out;
  }
#endif
};

struct Bf16Encoder {
  using Out = bf16_t;
  static bf16_t scalar(float v) noexcept { return bf16_t{v}; }
#ifdef KAMI_HOST_X86_VARIANTS
  /// bf16_t::encode, lane-wise.
  template <typename V>
  [[gnu::always_inline]] static V lanes(V f) noexcept {
    const V rounded = (f + 0x7FFFu + ((f >> 16) & 1u)) >> 16;
    return select((f & 0x7FFFFFFFu) > 0x7F800000u, (f >> 16) | 0x0040u, rounded);
  }
#endif
};

struct Fp8E4m3Encoder {
  using Out = fp8_e4m3_t;
  static fp8_e4m3_t scalar(float v) noexcept { return fp8_e4m3_t{v}; }
#ifdef KAMI_HOST_X86_VARIANTS
  /// fp8_e4m3_t::encode, lane-wise.
  template <typename V>
  [[gnu::always_inline]] static V lanes(V f) noexcept {
    const V sign = (f >> 24) & 0x80u;
    const V abs = f & 0x7FFFFFFFu;
    const V normal = ((abs + 0x7FFFFu + ((abs >> 20) & 1u)) >> 20) - (120u << 3);
    const V e = abs >> 23;
    const V sig = (abs & 0x007FFFFFu) | 0x00800000u;
    V out = shift_rne(sig, 141u - e);  // |v| < 2^-6: subnormal or zero
    out = select(abs >= 0x3C800000u, normal, out);
    out = select(abs >= 0x43E00000u, V{} + 0x7Eu, out);
    out = select(abs > 0x7F800000u, V{} + 0x7Fu, out);
    return sign | out;
  }
#endif
};

#ifdef KAMI_HOST_X86_VARIANTS
/// The span body for VB-byte vectors: W floats per step through the lane
/// encoder, narrowed to the format's W storage lanes; the tail that does not
/// fill a vector runs the scalar encoder. E4M3 narrows through 16-bit lanes,
/// which GCC packs in two instructions where a direct 32-to-8-bit
/// conversion is extracted lane by lane.
template <std::size_t VB, typename E>
[[gnu::always_inline]] inline void encode_lanes(const float* src, typename E::Out* dst,
                                                std::size_t n) noexcept {
  constexpr std::size_t W = VB / sizeof(float);
  using Bits = decltype(typename E::Out{}.bits());
  static_assert(sizeof(typename E::Out) == sizeof(Bits));
  typedef std::uint32_t V __attribute__((vector_size(VB)));
  typedef std::uint16_t H __attribute__((vector_size(VB / 2)));
  typedef Bits N __attribute__((vector_size(W * sizeof(Bits))));
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    V bits;
    std::memcpy(&bits, src + i, sizeof(V));
    const N out =
        __builtin_convertvector(__builtin_convertvector(E::lanes(bits), H), N);
    std::memcpy(static_cast<void*>(dst + i), &out, sizeof(N));
  }
  for (; i < n; ++i) dst[i] = E::scalar(src[i]);
}

template <typename E>
[[gnu::target("avx2")]] void encode_lanes_avx2(const float* src, typename E::Out* dst,
                                               std::size_t n) noexcept {
  encode_lanes<vector_bytes(HostIsa::Avx2), E>(src, dst, n);
}

template <typename E>
[[gnu::target("avx512f")]] void encode_lanes_avx512(const float* src, typename E::Out* dst,
                                                    std::size_t n) noexcept {
  encode_lanes<vector_bytes(HostIsa::Avx512f), E>(src, dst, n);
}
#endif

template <typename E>
void encode_variant(HostIsa isa, const float* src, typename E::Out* dst,
                    std::size_t n) noexcept {
#ifdef KAMI_HOST_X86_VARIANTS
  switch (isa) {
    case HostIsa::Avx512f: return encode_lanes_avx512<E>(src, dst, n);
    case HostIsa::Avx2: return encode_lanes_avx2<E>(src, dst, n);
    case HostIsa::Baseline: break;
  }
#else
  (void)isa;
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] = E::scalar(src[i]);
}

}  // namespace

void encode_span_variant(HostIsa isa, const float* src, fp16_t* dst, std::size_t n) noexcept {
  encode_variant<Fp16Encoder>(isa, src, dst, n);
}

void encode_span_variant(HostIsa isa, const float* src, bf16_t* dst, std::size_t n) noexcept {
  encode_variant<Bf16Encoder>(isa, src, dst, n);
}

void encode_span_variant(HostIsa isa, const float* src, fp8_e4m3_t* dst,
                         std::size_t n) noexcept {
  encode_variant<Fp8E4m3Encoder>(isa, src, dst, n);
}

}  // namespace kami::types
