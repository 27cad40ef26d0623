// CUTLASS-like fixed-tile GEMM.
//
// CUTLASS's block-level building blocks are tuned for large tiles (§3.1:
// "size m=128, n=128 and k=32 ... used as the building block for large GEMM
// in CUTLASS"). When the problem is smaller than the tile, the kernel still
// stages and multiplies the full (zero-padded) tile — wasted tensor-core
// issue and shared-memory traffic that grows as the cube of the padding
// factor. This is the mechanism behind the paper's very large small-size
// speedups (up to 74x at FP16 on the 5090) and CUTLASS's ~65 KB
// shared-memory footprint (§5.6.1) from multi-stage double buffering.
// Problems larger than one tile sweep the tile grid sequentially within the
// block.
#pragma once

#include <algorithm>
#include <vector>

#include "baselines/baseline_result.hpp"
#include "baselines/staging.hpp"
#include "model/cost_model.hpp"
#include "sim/block.hpp"

namespace kami::baselines {

struct CutlassTile {
  std::size_t m = 128, n = 128, k = 32;
  int stages = 2;  ///< smem pipeline depth
};

/// The default tile CUTLASS instantiates per precision.
inline CutlassTile cutlass_tile(Precision prec) {
  switch (prec) {
    case Precision::FP64: return {64, 64, 16, 2};
    case Precision::FP32:
    case Precision::TF32: return {128, 128, 16, 3};
    default: return {128, 128, 32, 3};  // FP16 / BF16 / FP8
  }
}

template <Scalar T>
BaselineResult<T> cutlass_gemm(const sim::DeviceSpec& dev, const Matrix<T>& A,
                               const Matrix<T>& B, bool charge_global_io = false,
                               const CutlassTile* tile_override = nullptr,
                               sim::ExecMode mode = sim::ExecMode::Full) {
  using Acc = typename num_traits<T>::acc_t;
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();
  KAMI_REQUIRE(B.rows() == k, "inner dimensions must agree");

  const CutlassTile tile =
      tile_override ? *tile_override : cutlass_tile(num_traits<T>::precision);
  BaselineResult<T> out{Matrix<T>(m, n), {}, true, ""};

  const std::size_t smem_need = static_cast<std::size_t>(tile.stages) *
                                (tile.m * tile.k + tile.k * tile.n) * sizeof(T);
  if (smem_need > dev.smem_bytes_per_block) {
    out.feasible = false;
    out.note = "tile staging needs " + std::to_string(smem_need) + " B of shared memory";
    return out;
  }

  // 2x2 warp grid over the tile, each warp owning a (tile.m/2 x tile.n/2)
  // accumulator — CUTLASS's 96 regs/thread at FP16 (§5.6.1).
  constexpr int kWarps = 4;
  sim::ThreadBlock blk(dev, kWarps, mode);
  const std::size_t wm = tile.m / 2, wn = tile.n / 2;

  (void)blk.smem().alloc<T>(tile.m, tile.k);
  (void)blk.smem().alloc<T>(tile.k, tile.n);
  if (tile.stages > 1) {  // second pipeline stage buffer
    (void)blk.smem().alloc<T>(tile.m, tile.k);
    (void)blk.smem().alloc<T>(tile.k, tile.n);
  }

  blk.phase([&](sim::Warp& w) { w.set_gmem_charging(charge_global_io); });

  const std::size_t tiles_m = (m + tile.m - 1) / tile.m;
  const std::size_t tiles_n = (n + tile.n - 1) / tile.n;
  const std::size_t ksteps = std::max<std::size_t>(1, (k + tile.k - 1) / tile.k);

  for (std::size_t tr = 0; tr < tiles_m; ++tr) {
    for (std::size_t tc = 0; tc < tiles_n; ++tc) {
      const std::size_t rbase = tr * tile.m, cbase = tc * tile.n;
      std::vector<sim::Fragment<Acc>> Cw;
      Cw.reserve(kWarps);
      blk.phase([&](sim::Warp& w) { Cw.emplace_back(w.regs(), wm, wn); });

      for (std::size_t step = 0; step < ksteps; ++step) {
        const std::size_t k0 = step * tile.k;
        // Stage the full (padded) tile: warps split the copy. The MMA phase
        // reads its operands from the source matrices, so the copy is
        // charged, not performed.
        blk.phase([&](sim::Warp& w) {
          auto a_part = w.alloc_fragment<T>(tile.m / kWarps, tile.k);
          w.charge_global_traffic_async(a_part.bytes());
          w.charge_smem_write_traffic(a_part.bytes());
          auto b_part = w.alloc_fragment<T>(tile.k / kWarps, tile.n);
          w.charge_global_traffic_async(b_part.bytes());
          w.charge_smem_write_traffic(b_part.bytes());
        });
        blk.sync();

        // Each warp pulls its operand halves from shared memory and issues
        // the full padded warp tile on the tensor cores; the host multiplies
        // only the part of it that holds real data.
        blk.phase([&](sim::Warp& w) {
          const auto i = static_cast<std::size_t>(w.id());
          const std::size_t wr = i / 2, wc = i % 2;
          const std::size_t r0 = rbase + wr * wm, c0 = cbase + wc * wn;
          auto a_half = w.alloc_fragment<T>(wm, tile.k);
          auto b_half = w.alloc_fragment<T>(tile.k, wn);
          w.charge_smem_read_traffic(a_half.bytes());
          w.charge_smem_read_traffic(b_half.bytes());
          if (w.numerics_enabled()) {
            stage_window(a_half, A, r0, k0);
            stage_window(b_half, B, k0, c0);
          }
          w.mma_padded(Cw[i], a_half.view(), b_half.view(), valid_extent(r0, wm, m),
                       valid_extent(c0, wn, n), valid_extent(k0, tile.k, k));
        });
        blk.sync();
      }

      // Epilogue: CUTLASS stages the (padded) accumulator tile through
      // shared memory to produce coalesced stores, then writes the valid
      // region to the output.
      blk.phase([&](sim::Warp& w) {
        const auto i = static_cast<std::size_t>(w.id());
        w.charge_smem_write_traffic(wm * wn * sizeof(T));
        w.charge_smem_read_traffic(wm * wn * sizeof(T));
        const std::size_t wr = i / 2, wc = i % 2;
        const std::size_t r0 = rbase + wr * wm, c0 = cbase + wc * wn;
        if (r0 >= m || c0 >= n) return;
        const std::size_t rows = std::min(wm, m - r0), cols = std::min(wn, n - c0);
        w.store_global_narrowed(out.C, Cw[i], r0, c0, 0, 0, rows, cols);
      });
      blk.sync();
    }
  }

  out.profile = sim::profile_block(blk, model::gemm_flops(m, n, k));
  out.note = "tile " + std::to_string(tile.m) + "x" + std::to_string(tile.n) + "x" +
             std::to_string(tile.k);
  return out;
}

}  // namespace kami::baselines
