// KAMI-3D.
//
// p warps form a cbrt(p)^3 cube indexed (i, j, l). A is partitioned into
// c x c blocks A(i, s) and B into B(s, j) with c = cbrt(p); warp (i, j, l)
// computes the single exact product A(i, l) x B(l, j) — layer l covers the
// l-th k-segment — and the per-(i, j) partials are reduced across layers.
//
// Communication, all through shared memory and sliced along k:
//   * A(i, l), held by warp (i, l, l), broadcasts to the other warps in the
//     same row and layer (j != l);
//   * B(l, j), held by warp (l, j, l), broadcasts to the same column/layer
//     (i != l);
//   * the inter-layer C reduction streams partial tiles in column chunks to
//     bound shared-memory footprint.
//
// When the per-warp C block exceeds the register file (e.g. FP64 at order
// 128, where a 64x64 FP64 accumulator alone needs 256 registers/thread),
// the planner selects an n-chunked plan: C is produced in column chunks,
// with A re-broadcast once per chunk — the §4.7 "fallback to shared memory"
// applied to the output operand.
//
// This is the mathematically exact classic 3D CA algorithm; the paper's
// Algorithm 3 as printed would recompute each product cbrt(p)-fold (see
// DESIGN.md). Aggregate A/B communication volume equals formula (9):
// (mk + kn) * s_e (times the chunk count for A when chunked).
#pragma once

#include <cstring>
#include <optional>
#include <vector>

#include "core/gemm.hpp"
#include "core/phase_scope.hpp"
#include "core/planner.hpp"
#include "core/sliced_operand.hpp"
#include "sim/block.hpp"

namespace kami::core::detail {

/// The 3D algorithm for an m x n x k product on `blk` (plan.p warps); `ph`,
/// A, B and C as in simulate_1d (core/kami_1d.hpp).
template <Scalar T>
void simulate_3d(sim::ThreadBlock& blk, obs::TraceBuilder* ph, const Plan& plan,
                 std::size_t m, std::size_t n, std::size_t k, const GemmOptions& opt,
                 const Matrix<T>* A, const Matrix<T>* B, Matrix<T>* C) {
  using Acc = typename num_traits<T>::acc_t;

  const auto p = static_cast<std::size_t>(plan.p);
  const auto c = static_cast<std::size_t>(plan.grid);
  const std::size_t mb = m / c, nb = n / c, kb = k / c;
  const std::size_t slices = kb / plan.slice_w;
  const std::size_t nc = plan.n_chunk == 0 ? nb : plan.n_chunk;  // C chunk width

  const auto layer_of = [&](std::size_t id) { return id / (c * c); };
  const auto row_of = [&](std::size_t id) { return (id % (c * c)) / c; };
  const auto col_of = [&](std::size_t id) { return id % c; };
  const auto id_of = [&](std::size_t i, std::size_t j, std::size_t l) {
    return l * c * c + i * c + j;
  };

  // Only owner warps hold operands: warp (i, l, l) owns A(i, l) and warp
  // (l, j, l) owns B(l, j).
  std::vector<std::optional<SlicedOperand<T>>> Aop(p), Bop(p);
  std::vector<sim::Fragment<T>> ARecv;
  ARecv.reserve(p);

  {
    PhaseScope r_setup(ph, blk, "setup");
    blk.phase([&](sim::Warp& w) {
      w.set_gmem_charging(opt.charge_global_io);
      const auto id = static_cast<std::size_t>(w.id());
      const std::size_t i = row_of(id), j = col_of(id), l = layer_of(id);
      if (j == l) Aop[id].emplace(w, blk.smem(), plan.a, A, i * mb, l * kb);
      if (i == l) Bop[id].emplace(w, blk.smem(), plan.b, B, l * kb, j * nb);
      ARecv.emplace_back(w.regs(), plan.a.slice_rows(), plan.a.slice_cols());
    });
    blk.sync();
  }

  // Broadcast buffers: one per (row, layer) for A, one per (col, layer) for
  // B (B buffers are chunk-width); plus the reduction staging tiles.
  std::vector<sim::SmemTile<T>> SmA, SmB;  // indexed [l * c + i] / [l * c + j]
  for (std::size_t g = 0; g < c * c; ++g) {
    SmA.push_back(blk.smem().alloc<T>(plan.a.slice_rows(), plan.a.slice_cols()));
    SmB.push_back(blk.smem().alloc<T>(plan.b.slice_rows(), nc));
  }
  const std::size_t red_cols = nc < 16 ? nc : 16;
  std::vector<sim::SmemTile<Acc>> SmP;  // one per (i, j)
  for (std::size_t g = 0; g < c * c; ++g)
    SmP.push_back(blk.smem().alloc<Acc>(mb, red_cols));

  for (std::size_t n0 = 0; n0 < nb; n0 += nc) {
    // Per-chunk accumulators and receive buffers.
    std::vector<sim::Fragment<Acc>> Ci;
    std::vector<sim::Fragment<T>> BRecv;
    Ci.reserve(p);
    BRecv.reserve(p);
    blk.phase([&](sim::Warp& w) {
      Ci.emplace_back(w.regs(), mb, nc);
      BRecv.emplace_back(w.regs(), plan.b.slice_rows(), nc);
    });

    for (std::size_t s = 0; s < slices; ++s) {
      const bool a_res = plan.a.is_resident(s);
      const bool b_res = plan.b.is_resident(s);

      // Write phase: owners publish slice s (A full-width; B only the
      // current column chunk).
      PhaseScope r_w(ph, blk, "broadcast_write");
      blk.phase([&](sim::Warp& w) {
        const auto id = static_cast<std::size_t>(w.id());
        const std::size_t i = row_of(id), j = col_of(id), l = layer_of(id);
        if (j == l) {
          if (a_res)
            w.store_smem(SmA[l * c + i], Aop[id]->resident_slice(s), opt.theta_w);
          Aop[id]->fetch_slice(w, s, ARecv[id], opt.theta_r);
        }
        if (i == l) {
          if (b_res) {
            w.store_smem(SmB[l * c + j],
                         Bop[id]->resident_slice(s).window(0, n0, plan.b.slice_rows(), nc),
                         opt.theta_w);
            w.copy_reg(BRecv[id],
                       Bop[id]->resident_slice(s).window(0, n0, plan.b.slice_rows(), nc));
          } else {
            // Spilled slice: pull the chunk columns from the spill region
            // (each chunk row is contiguous in B, so one memcpy per row).
            w.charge_smem_read_traffic(plan.b.slice_rows() * nc * sizeof(T), opt.theta_r);
            if (B != nullptr)
              for (std::size_t rr = 0; rr < plan.b.slice_rows(); ++rr)
                std::memcpy(BRecv[id].row_data(rr),
                            &(*B)(l * kb + s * plan.slice_w + rr, col_of(id) * nb + n0),
                            nc * sizeof(T));
          }
        }
      });
      blk.sync();
      r_w.close();

      // Read phase: same row+layer for A, same column+layer for B.
      PhaseScope r_r(ph, blk, "broadcast_read");
      blk.phase([&](sim::Warp& w) {
        const auto id = static_cast<std::size_t>(w.id());
        const std::size_t i = row_of(id), j = col_of(id), l = layer_of(id);
        if (j != l) {
          const std::size_t owner = id_of(i, l, l);
          if (a_res) {
            w.load_smem(ARecv[id], SmA[l * c + i], opt.theta_r);
          } else {
            w.load_smem(ARecv[id], Aop[owner]->spilled_slice(s), opt.theta_r);
          }
        }
        if (i != l) {
          if (b_res) {
            sim::SmemTile<T> tile = SmB[l * c + j];
            w.load_smem(BRecv[id], tile, opt.theta_r);
          } else {
            // Chunk columns straight from the owner's spill region.
            w.charge_smem_read_traffic(plan.b.slice_rows() * nc * sizeof(T), opt.theta_r);
            if (B != nullptr)
              for (std::size_t rr = 0; rr < plan.b.slice_rows(); ++rr)
                std::memcpy(BRecv[id].row_data(rr),
                            &(*B)(l * kb + s * plan.slice_w + rr, j * nb + n0),
                            nc * sizeof(T));
          }
        }
      });
      blk.sync();
      r_r.close();

      // Compute phase: one partial-product MMA per warp per slice.
      PhaseScope r_c(ph, blk, "compute");
      blk.phase([&](sim::Warp& w) {
        const auto id = static_cast<std::size_t>(w.id());
        w.mma(Ci[id], ARecv[id].view(), BRecv[id].view());
      });
      blk.sync();
    }

    // Inter-layer reduction of this chunk: layer 0 accumulates layers
    // 1..c-1, streamed through shared memory in <=16-column pieces. The
    // ragged last piece (nc not a multiple of red_cols) gets its own
    // receive fragment, allocated once here rather than per reduce op —
    // the seed re-allocated it inside the piece loop, c-1 times per chunk.
    // Allocation order (Pscratch then Ptail, same phase) reproduces the
    // seed's peak register set exactly, so overflow behavior and the
    // profiled register high-water are unchanged.
    PhaseScope r_red(ph, blk, "reduce");
    const std::size_t tail_cols = nc % red_cols;
    std::vector<std::optional<sim::Fragment<Acc>>> Pscratch(p), Ptail(p);
    blk.phase([&](sim::Warp& w) {
      const auto id = static_cast<std::size_t>(w.id());
      Pscratch[id].emplace(w.regs(), mb, red_cols);
      if (tail_cols != 0 && layer_of(id) == 0) Ptail[id].emplace(w.regs(), mb, tail_cols);
    });
    for (std::size_t l = 1; l < c; ++l) {
      for (std::size_t c0 = 0; c0 < nc; c0 += red_cols) {
        const std::size_t cw = (c0 + red_cols <= nc) ? red_cols : nc - c0;
        blk.phase([&](sim::Warp& w) {
          const auto id = static_cast<std::size_t>(w.id());
          if (layer_of(id) != l) return;
          const std::size_t i = row_of(id), j = col_of(id);
          auto tile = SmP[i * c + j];
          tile.cols = cw;
          w.store_smem(tile, Ci[id].view(0, c0, mb, cw), opt.theta_w);
        });
        blk.sync();
        blk.phase([&](sim::Warp& w) {
          const auto id = static_cast<std::size_t>(w.id());
          if (layer_of(id) != 0) return;
          const std::size_t i = row_of(id), j = col_of(id);
          auto tile = SmP[i * c + j];
          tile.cols = cw;
          auto& recv = cw == red_cols ? *Pscratch[id] : *Ptail[id];
          w.load_smem(recv, tile, opt.theta_r);
          w.add_inplace_at(Ci[id], 0, c0, recv.view());
        });
        blk.sync();
      }
    }

    r_red.close();

    // Store this chunk (layer 0 holds the reduced result).
    PhaseScope r_wb(ph, blk, "writeback");
    blk.phase([&](sim::Warp& w) {
      const auto id = static_cast<std::size_t>(w.id());
      if (layer_of(id) != 0) return;
      store_result(w, C, Ci[id], row_of(id) * mb, col_of(id) * nb + n0);
    });
    blk.sync();
  }
}

}  // namespace kami::core::detail
