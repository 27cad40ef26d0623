// Common options and result types for KAMI's block-level GEMM kernels.
#pragma once

#include <cstddef>
#include <memory>

#include "model/registers.hpp"
#include "obs/trace_span.hpp"
#include "sim/exec_mode.hpp"
#include "sim/throughput.hpp"
#include "types/matrix.hpp"

namespace kami::core {

/// Algorithm selector; identical to the analytic model's tag.
using Algo = model::Algo;

struct GemmOptions {
  /// Number of warps p. 0 = auto: the smallest legal warp count whose
  /// register demand fits at some spill ratio (1D/2D try 4, 8/16; 3D tries
  /// 8, then 27).
  int warps = 0;

  /// Fraction of A/B k-slices spilled to shared memory (§4.7, Fig 10).
  /// Negative = auto: the smallest preset in {0, .25, .5, .75, .875} that
  /// fits the register file.
  double smem_ratio = -1.0;

  /// Preferred k-slice width; 16 matches the MMA granularity (§4.7).
  std::size_t slice_pref = 16;

  /// Charge global-memory loads/stores. Block-level experiments keep data
  /// on chip across kernel iterations (Fig 3 caption) and leave this off;
  /// batched drivers turn it on.
  bool charge_global_io = false;

  /// Bank-conflict factors (Table 2); KAMI's layouts are conflict-free.
  double theta_r = 1.0;
  double theta_w = 1.0;

  /// What kami::gemm runs (core/kami.hpp). Full: one TimingOnly simulation
  /// for the profile, then the host kernel (core::numeric_gemm) for C.
  /// TimingOnly: the simulation alone, C zero-filled. NumericsOnly: the host
  /// kernel alone, profile zero. Full's profile and C equal those of the
  /// element data plane (verify::data_plane_gemm) bit for bit. Region
  /// recording requires a timed mode.
  sim::ExecMode mode = sim::ExecMode::Full;

  /// Record the kernel's phases as spans on the simulated clock
  /// (core/phase_scope.hpp) into GemmResult::regions.
  bool record_regions = false;

  /// Simulated-cycle budget for the whole kernel (0 = unlimited). The op
  /// that pushes any warp's clock past the budget throws
  /// sim::DeadlineExceeded at a deterministic point — the serving layer's
  /// watchdog against runaway simulations. Only timed modes can trip it
  /// (NumericsOnly never advances a clock), and it is excluded from the
  /// ProfileKey: a run that finishes under its deadline has exactly the
  /// profile an unbounded run would.
  double deadline_cycles = 0.0;
};

template <Scalar T>
struct GemmResult {
  Matrix<T> C;
  sim::KernelProfile profile;
  int warps = 0;           ///< the p actually used
  double smem_ratio = 0.0; ///< the spill ratio actually used
  /// Phase trace: a root span for the kernel with one child span per phase
  /// occurrence; set when GemmOptions::record_regions.
  std::shared_ptr<const obs::RequestTrace> regions;
};

}  // namespace kami::core
