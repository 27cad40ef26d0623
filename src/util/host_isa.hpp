// The vector instruction sets the host numeric code is compiled for, and
// the one this CPU runs. The host GEMM kernel (core/vector_kernels.hpp) and
// the narrowing spans (types/decode_tables.cpp) each compile one body per
// variant and dispatch on the same probe, so a process runs one variant
// everywhere. No option, flag or environment variable selects it.
#pragma once

#include <cstddef>

#if !defined(KAMI_NO_SIMD) && (defined(__GNUC__) || defined(__clang__))
/// GCC/Clang generic vectors are compiled in; KAMI_NO_SIMD turns them off.
#define KAMI_NUMERIC_SIMD 1
#if defined(__x86_64__) || defined(__i386__)
/// The AVX2 and AVX-512F variants are compiled in, under
/// [[gnu::target]], next to the baseline.
#define KAMI_HOST_X86_VARIANTS 1
#endif
#endif

namespace kami {

/// The variants, narrowest first: each CPU that runs one runs the ones
/// before it.
enum class HostIsa { Baseline, Avx2, Avx512f };

/// Vector bytes per variant: the baseline uses the register width every
/// x86-64 (SSE2) and AArch64 (NEON) CPU has; AVX2 doubles it and AVX-512F
/// doubles it again. A vector wider than the target's registers is split
/// into pairs and spills the accumulators, so each variant uses its own.
constexpr std::size_t vector_bytes(HostIsa isa) noexcept {
  return isa == HostIsa::Avx512f ? 64 : isa == HostIsa::Avx2 ? 32 : 16;
}

/// The widest variant this build compiles that this CPU reports; probed
/// once per process. Baseline when no x86 variant is compiled.
inline HostIsa host_isa() noexcept {
#ifdef KAMI_HOST_X86_VARIANTS
  static const HostIsa isa = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return HostIsa::Avx512f;
    if (__builtin_cpu_supports("avx2")) return HostIsa::Avx2;
    return HostIsa::Baseline;
  }();
  return isa;
#else
  return HostIsa::Baseline;
#endif
}

}  // namespace kami
