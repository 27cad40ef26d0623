// KAMI-1D (Algorithm 1).
//
// p warps; warp i holds the row stripe A_i (m/p x k) in registers and
// accumulates C_i (m/p x n). B is partitioned into k-stripes of the MMA
// slice width (16 by default, §4.7); stripes are assigned contiguously to
// warps, and the multiplication proceeds stripe by stripe: the owner
// broadcasts its stripe through shared memory (Reg2SMem), every other warp
// reads it (SMem2Reg) — serialized on the shared-memory port, which is what
// formula (2)'s (p-1)/p read term models — and all warps multiply the
// matching k-slice of A_i with the received stripe on the tensor cores.
// Only B is communicated; A never moves between warps.
//
// Decoupling the stripe count from the warp count generalizes Algorithm 1
// (where each of the p warps owns exactly one stripe) to any k — in
// particular the low-rank shapes of §5.3, where k = 16 yields a single
// broadcast stripe regardless of p. When S = p stripes the two forms are
// identical, and so are the costs.
//
// The §4.7 register/shared-memory cooperation composes naturally: spilled
// slices of A stream from the warp's private spill region at use, and
// spilled stripes of B are read directly from the owner's spill region
// instead of being re-broadcast.
#pragma once

#include <optional>
#include <vector>

#include "core/gemm.hpp"
#include "core/numeric_path.hpp"
#include "core/phase_scope.hpp"
#include "core/planner.hpp"
#include "core/sliced_operand.hpp"
#include "model/cost_model.hpp"
#include "sim/block.hpp"

namespace kami::core {

template <Scalar T>
GemmResult<T> kami_1d_gemm(const sim::DeviceSpec& dev, const Matrix<T>& A,
                           const Matrix<T>& B, const GemmOptions& opt = {}) {
  using Acc = typename num_traits<T>::acc_t;
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();
  KAMI_REQUIRE(B.rows() == k, "inner dimensions must agree");

  const Plan plan = plan_gemm(Algo::OneD, dev, num_traits<T>::precision, m, n, k, opt);

  // NumericsOnly: the 1D accumulation order equals the plain sequential-k
  // chain (see core/numeric_path.hpp), so skip the simulator entirely.
  if (opt.mode == sim::ExecMode::NumericsOnly)
    return {numeric_gemm(A, B), {}, plan.p, plan.smem_ratio, nullptr, nullptr};

  const auto p = static_cast<std::size_t>(plan.p);
  const std::size_t row_chunk = m / p;            // rows of A_i / C_i
  const std::size_t sw = plan.slice_w;            // stripe width along k
  const std::size_t stripes = k / sw;             // broadcast stages
  const std::size_t q = (stripes + p - 1) / p;    // stripes per owner warp

  sim::ThreadBlock blk(dev, plan.p, opt.mode);
  blk.set_deadline(opt.deadline_cycles);
  if (opt.record_trace) blk.enable_trace();

  // Optional phase trace on the block's simulated clock (core/phase_scope.hpp).
  std::optional<obs::TraceBuilder> phases;
  if (opt.record_regions) phases.emplace("kami_1d", "kami_1d", blk.cycles());
  obs::TraceBuilder* const ph = phases ? &*phases : nullptr;

  // Per-warp state, indexed by warp id (phases run warps in id order).
  std::vector<SlicedOperand<T>> Aop;
  std::vector<std::optional<SlicedOperand<T>>> Bop(p);
  std::vector<SliceLayout> b_layout(p);
  std::vector<sim::Fragment<Acc>> Ci;
  std::vector<sim::Fragment<T>> BRecv;
  std::vector<sim::Fragment<T>> Ascratch;  // only used when A spills
  Aop.reserve(p);
  Ci.reserve(p);
  BRecv.reserve(p);
  const bool a_spills = plan.a.spilled_slices_total() > 0;
  if (a_spills) Ascratch.reserve(p);

  {
    PhaseScope r_setup(ph, blk, "setup");
    blk.phase([&](sim::Warp& w) {
      w.set_gmem_charging(opt.charge_global_io);
      const auto i = static_cast<std::size_t>(w.id());
      Aop.emplace_back(w, blk.smem(), plan.a, A, i * row_chunk, 0);
      const std::size_t first = i * q;
      const std::size_t count = first >= stripes
                                    ? 0
                                    : ((first + q <= stripes) ? q : stripes - first);
      if (count > 0) {
        b_layout[i] = SliceLayout::make(count * sw, n, SliceAxis::Rows, sw, 0,
                                        plan.smem_ratio);
        Bop[i].emplace(w, blk.smem(), b_layout[i], B, first * sw, 0);
      }
      Ci.emplace_back(w.regs(), row_chunk, n);
      BRecv.emplace_back(w.regs(), sw, n);
      if (a_spills) Ascratch.emplace_back(w.regs(), plan.a.slice_rows(), plan.a.slice_cols());
    });
    blk.sync();
  }

  // One broadcast buffer, reused across stages (Algorithm 1's SmB).
  auto SmB = blk.smem().alloc<T>(sw, n);

  for (std::size_t z = 0; z < stripes; ++z) {
    const std::size_t owner = z / q;
    const std::size_t ls = z - owner * q;  // slice index within the owner
    const bool resident = b_layout[owner].is_resident(ls);

    // Write phase: the owner publishes its resident slice (lines 6-7);
    // spilled slices are already in its shared-memory region.
    {
      PhaseScope r(ph, blk, "broadcast_write");
      blk.phase([&](sim::Warp& w) {
        if (static_cast<std::size_t>(w.id()) != owner) return;
        if (resident) w.store_smem(SmB, Bop[owner]->resident_slice(ls), opt.theta_w);
        Bop[owner]->fetch_slice(w, ls, BRecv[owner], opt.theta_r);  // own copy (line 7)
      });
      blk.sync();
    }

    // Read phase: everyone else pulls the slice (line 10), serialized on
    // the shared-memory port.
    {
      PhaseScope r(ph, blk, "broadcast_read");
      blk.phase([&](sim::Warp& w) {
        const auto i = static_cast<std::size_t>(w.id());
        if (i == owner) return;
        if (resident) {
          w.load_smem(BRecv[i], SmB, opt.theta_r);
        } else {
          w.load_smem(BRecv[i], Bop[owner]->spilled_slice(ls), opt.theta_r);
        }
      });
      blk.sync();
    }

    // Compute phase (line 12): Ci += A_i[:, stripe z] x BRecv.
    {
      PhaseScope r(ph, blk, "compute");
      blk.phase([&](sim::Warp& w) {
        const auto i = static_cast<std::size_t>(w.id());
        if (plan.a.is_resident(z)) {
          w.mma(Ci[i], Aop[i].resident_slice(z), BRecv[i].view());
        } else {
          w.load_smem(Ascratch[i], Aop[i].spilled_slice(z), opt.theta_r);
          w.mma(Ci[i], Ascratch[i].view(), BRecv[i].view());
        }
      });
      blk.sync();
    }
  }

  // Line 13: write back C, narrowed to the storage precision.
  GemmResult<T> out{Matrix<T>(m, n), {}, plan.p, plan.smem_ratio, nullptr, nullptr};
  {
    PhaseScope r(ph, blk, "writeback");
    blk.phase([&](sim::Warp& w) {
      const auto i = static_cast<std::size_t>(w.id());
      w.store_global_narrowed(out.C, Ci[i], i * row_chunk, 0);
    });
    blk.sync();
  }

  out.profile = sim::profile_block(blk, model::gemm_flops(m, n, k));
  if (opt.record_trace) out.trace = blk.take_trace();
  out.regions = finish_phases(ph, blk);
  return out;
}

}  // namespace kami::core
