// KAMI-2D (Algorithm 2).
//
// p warps form a sqrt(p) x sqrt(p) grid; warp (r, c) holds A's block (r, c)
// of size (m/sqrt(p) x k/sqrt(p)) and B's block (r, c) of size
// (k/sqrt(p) x n/sqrt(p)). The multiplication runs in sqrt(p) SUMMA-style
// stages: at stage z the z-th grid *column* broadcasts its A blocks along
// each row and the z-th grid *row* broadcasts its B blocks along each
// column, all through shared memory; every warp then multiplies its
// received pair and accumulates C(r, c).
#pragma once

#include <vector>

#include "core/gemm.hpp"
#include "core/phase_scope.hpp"
#include "core/planner.hpp"
#include "core/sliced_operand.hpp"
#include "sim/block.hpp"

namespace kami::core::detail {

/// Algorithm 2 for an m x n x k product on `blk` (plan.p warps); `ph`, A, B
/// and C as in simulate_1d (core/kami_1d.hpp).
template <Scalar T>
void simulate_2d(sim::ThreadBlock& blk, obs::TraceBuilder* ph, const Plan& plan,
                 std::size_t m, std::size_t n, std::size_t k, const GemmOptions& opt,
                 const Matrix<T>* A, const Matrix<T>* B, Matrix<T>* C) {
  using Acc = typename num_traits<T>::acc_t;

  const auto p = static_cast<std::size_t>(plan.p);
  const auto q = static_cast<std::size_t>(plan.grid);
  const std::size_t mb = m / q, nb = n / q, kb = k / q;
  const std::size_t slices = kb / plan.slice_w;

  const auto row_of = [&](std::size_t id) { return id / q; };
  const auto col_of = [&](std::size_t id) { return id % q; };

  std::vector<SlicedOperand<T>> Aop, Bop;
  std::vector<sim::Fragment<Acc>> Ci;
  std::vector<sim::Fragment<T>> ARecv, BRecv;
  Aop.reserve(p);
  Bop.reserve(p);
  Ci.reserve(p);
  ARecv.reserve(p);
  BRecv.reserve(p);

  {
    PhaseScope r_setup(ph, blk, "setup");
    blk.phase([&](sim::Warp& w) {
      w.set_gmem_charging(opt.charge_global_io);
      const auto i = static_cast<std::size_t>(w.id());
      const std::size_t r = row_of(i), c = col_of(i);
      Aop.emplace_back(w, blk.smem(), plan.a, A, r * mb, c * kb);
      Bop.emplace_back(w, blk.smem(), plan.b, B, r * kb, c * nb);
      Ci.emplace_back(w.regs(), mb, nb);
      ARecv.emplace_back(w.regs(), plan.a.slice_rows(), plan.a.slice_cols());
      BRecv.emplace_back(w.regs(), plan.b.slice_rows(), plan.b.slice_cols());
    });
    blk.sync();
  }

  // One A buffer per grid row and one B buffer per grid column.
  std::vector<sim::SmemTile<T>> SmA, SmB;
  for (std::size_t g = 0; g < q; ++g) {
    SmA.push_back(blk.smem().alloc<T>(plan.a.slice_rows(), plan.a.slice_cols()));
    SmB.push_back(blk.smem().alloc<T>(plan.b.slice_rows(), plan.b.slice_cols()));
  }

  for (std::size_t z = 0; z < q; ++z) {
    for (std::size_t s = 0; s < slices; ++s) {
      const bool a_res = plan.a.is_resident(s);
      const bool b_res = plan.b.is_resident(s);

      // Write phase (lines 5-10): column-z warps publish A, row-z warps
      // publish B; owners also stage their own copies (Reg2Reg).
      PhaseScope r_w(ph, blk, "broadcast_write");
      blk.phase([&](sim::Warp& w) {
        const auto i = static_cast<std::size_t>(w.id());
        const std::size_t r = row_of(i), c = col_of(i);
        if (c == z) {
          if (a_res) w.store_smem(SmA[r], Aop[i].resident_slice(s), opt.theta_w);
          Aop[i].fetch_slice(w, s, ARecv[i], opt.theta_r);
        }
        if (r == z) {
          if (b_res) w.store_smem(SmB[c], Bop[i].resident_slice(s), opt.theta_w);
          Bop[i].fetch_slice(w, s, BRecv[i], opt.theta_r);
        }
      });
      blk.sync();
      r_w.close();

      // Read phase (lines 12-15).
      PhaseScope r_r(ph, blk, "broadcast_read");
      blk.phase([&](sim::Warp& w) {
        const auto i = static_cast<std::size_t>(w.id());
        const std::size_t r = row_of(i), c = col_of(i);
        if (c != z) {
          const std::size_t owner = r * q + z;
          if (a_res) {
            w.load_smem(ARecv[i], SmA[r], opt.theta_r);
          } else {
            w.load_smem(ARecv[i], Aop[owner].spilled_slice(s), opt.theta_r);
          }
        }
        if (r != z) {
          const std::size_t owner = z * q + c;
          if (b_res) {
            w.load_smem(BRecv[i], SmB[c], opt.theta_r);
          } else {
            w.load_smem(BRecv[i], Bop[owner].spilled_slice(s), opt.theta_r);
          }
        }
      });
      blk.sync();
      r_r.close();

      // Compute phase (line 17).
      PhaseScope r_c(ph, blk, "compute");
      blk.phase([&](sim::Warp& w) {
        const auto i = static_cast<std::size_t>(w.id());
        w.mma(Ci[i], ARecv[i].view(), BRecv[i].view());
      });
      blk.sync();
    }
  }

  {
    PhaseScope r(ph, blk, "writeback");
    blk.phase([&](sim::Warp& w) {
      const auto i = static_cast<std::size_t>(w.id());
      store_result(w, C, Ci[i], row_of(i) * mb, col_of(i) * nb);
    });
    blk.sync();
  }
}

}  // namespace kami::core::detail
