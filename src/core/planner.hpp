// Launch planning: choose the warp count and spill ratio for a GEMM before
// any simulation happens, by computing the per-warp register demand of each
// candidate configuration against the device's register file.
#pragma once

#include <cstddef>

#include "core/gemm.hpp"
#include "core/sliced_operand.hpp"
#include "sim/device.hpp"

namespace kami::core {

struct Plan {
  Algo algo = Algo::OneD;
  int p = 0;                  ///< warps
  int grid = 0;               ///< sqrt(p) for 2D, cbrt(p) for 3D, p for 1D
  double smem_ratio = 0.0;
  std::size_t slice_w = 0;    ///< shared k-slice width for A and B
  SliceLayout a;              ///< per-warp A operand layout
  SliceLayout b;              ///< per-warp B operand layout
  /// 3D only: process C in column chunks of this width (0 = whole tile).
  /// The fallback for shapes whose per-warp accumulator block exceeds the
  /// register file (e.g. FP64 at order 128): A/B re-broadcast per chunk in
  /// exchange for a bounded C footprint.
  std::size_t n_chunk = 0;
  std::size_t reg_demand_bytes = 0;  ///< predicted per-warp register bytes
};

/// The warp grid's edge for p warps: p for 1D, sqrt(p) for 2D, cbrt(p) for
/// 3D (Plan::grid). Throws PreconditionError when p is not a square (2D) or
/// a cube (3D).
int warp_grid(Algo algo, int p);

/// Per-warp register demand of a candidate plan (operands + accumulator +
/// receive/scratch slices); what the planner compares to the register file.
std::size_t register_demand_bytes(const Plan& plan, Precision prec, std::size_t m,
                                  std::size_t n, std::size_t k);

/// Resolve a launch plan. Throws sim::RegisterOverflow when no candidate
/// configuration fits, and PreconditionError for indivisible shapes.
Plan plan_gemm(Algo algo, const sim::DeviceSpec& dev, Precision prec, std::size_t m,
               std::size_t n, std::size_t k, const GemmOptions& opt);

}  // namespace kami::core
