// Execution modes decouple the two jobs every simulated op performs: moving
// real element data (numerics) and charging cycles on the block's resource
// timelines (timing).
//
//   Full        — both, today's behavior.
//   TimingOnly  — cycle accounting on shape metadata only; element loops and
//                 smem/fragment byte movement are skipped, and the block
//                 holds no element bytes at all: shared memory and register
//                 fragments keep only their capacity accounting (so overflow
//                 errors match Full), and accessing their storage asserts.
//                 Profiles and sim.* metrics are bit-identical to Full
//                 because every charge depends only on shapes, byte counts,
//                 and phase structure — never on values.
//   NumericsOnly— arithmetic only, and only at the front door: the KAMI
//                 kernels plan and then return core::numeric_gemm, so the
//                 mode never reaches a block. A sim::ThreadBlock always
//                 times and refuses it; batched GEMM refuses it too.
//
// Inside the simulator, mode_computes is the one question a mode answers.
#pragma once

#include <cstdint>

namespace kami::sim {

enum class ExecMode : std::uint8_t { Full, TimingOnly, NumericsOnly };

/// Does this mode execute element arithmetic and data movement? The one
/// place that decides whether a block's shared memory and fragments hold
/// bytes.
constexpr bool mode_computes(ExecMode m) noexcept { return m != ExecMode::TimingOnly; }

constexpr const char* exec_mode_name(ExecMode m) noexcept {
  switch (m) {
    case ExecMode::Full: return "full";
    case ExecMode::TimingOnly: return "timing_only";
    case ExecMode::NumericsOnly: return "numerics_only";
  }
  return "?";
}

}  // namespace kami::sim
