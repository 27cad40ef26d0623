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

  /// What the kernel executes (sim/exec_mode.hpp). TimingOnly skips all
  /// element arithmetic but produces the exact profile Full would;
  /// NumericsOnly computes the exact C Full would and leaves the profile
  /// zero. Trace/region recording require a timed mode.
  sim::ExecMode mode = sim::ExecMode::Full;

  /// Record an op-level timeline (sim/trace.hpp) into GemmResult::trace.
  bool record_trace = false;

  /// Record the kernel's phases as spans on the simulated clock
  /// (core/phase_scope.hpp) into GemmResult::regions.
  bool record_regions = false;

  /// Worker threads for fan-out drivers (batched entries, autotune
  /// candidates) run through exec::ExecutionEngine. 0 = defer to the
  /// KAMI_THREADS environment variable (default 1 == serial); a single
  /// kernel simulation is always single-threaded regardless. Excluded from
  /// the ProfileKey like deadline_cycles: the worker count never changes
  /// what is computed, only how the independent pieces are scheduled.
  int threads = 0;

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
  std::shared_ptr<sim::Trace> trace;  ///< set when GemmOptions::record_trace
  /// Phase trace: a root span for the kernel with one child span per phase
  /// occurrence; set when GemmOptions::record_regions.
  std::shared_ptr<const obs::RequestTrace> regions;
};

}  // namespace kami::core
