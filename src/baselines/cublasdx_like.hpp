// cuBLASDx-like block-level GEMM.
//
// Reimplements the strategy of NVIDIA's device-side cuBLASDx (the paper's
// primary block-level comparator): the entire A, B and C live in shared
// memory for the duration of the kernel, and every k-step each warp loads
// its A slice and the full B panel from shared memory into registers before
// the MMA (§5.3: "Traditional kernels, as in cuBLASDx/CUTLASS, load data
// into shared memory and then into registers").
//
// Compared to KAMI this costs (a) an extra full staging round of A and B
// into shared memory, (b) p redundant reads of each B panel (one per warp,
// where KAMI-1D reads it p-1 times total across the whole run), and (c) a
// ~3x shared-memory footprint (the paper measures 27 KB vs KAMI's 2-8 KB),
// which caps the matrix order well below KAMI's (§5.2.1: "KAMI supports
// larger matrices with lightweight shared memory use compared with
// cuBLASDx", and Fig 3's order-98 ceiling).
#pragma once

#include <vector>

#include "baselines/baseline_result.hpp"
#include "baselines/staging.hpp"
#include "model/cost_model.hpp"
#include "sim/block.hpp"

namespace kami::baselines {

/// cuBLASDx-like k-step: the MMA granularity.
inline std::size_t cublasdx_kstep(std::size_t k) { return k < 16 ? k : 16; }

template <Scalar T>
BaselineResult<T> cublasdx_gemm(const sim::DeviceSpec& dev, const Matrix<T>& A,
                                const Matrix<T>& B, int warps = 4,
                                bool charge_global_io = false,
                                sim::ExecMode mode = sim::ExecMode::Full) {
  using Acc = typename num_traits<T>::acc_t;
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();
  KAMI_REQUIRE(B.rows() == k, "inner dimensions must agree");
  KAMI_REQUIRE(warps >= 1);
  // Escalate the warp count until the per-warp C accumulator (plus its
  // streaming slices) fits the register file, as the library's launcher does.
  auto p = static_cast<std::size_t>(warps);
  while (p < 16 && (m / p) * n * sizeof(Acc) + (m / p) * 16 * sizeof(T) +
                           16 * 32 * sizeof(T) >
                       dev.reg_bytes_per_warp()) {
    p *= 2;
  }
  KAMI_REQUIRE(m % p == 0, "cuBLASDx-like kernel needs warps to divide m");

  BaselineResult<T> out{Matrix<T>(m, n), {}, true, ""};

  // Whole-problem shared-memory residency is the defining constraint:
  // A, B and C all live in shared memory at element width. On GH200 FP64
  // this caps the order at 98 (3 * 98^2 * 8 B = 227 KB), exactly the limit
  // Fig 3's caption reports for cuBLASDx.
  const std::size_t smem_need = (m * k + k * n + m * n) * sizeof(T);
  if (smem_need > dev.smem_bytes_per_block) {
    out.feasible = false;
    out.note = "shared memory demand " + std::to_string(smem_need) + " B exceeds " +
               std::to_string(dev.smem_bytes_per_block) + " B";
    return out;
  }

  sim::ThreadBlock blk(dev, warps, mode);
  (void)blk.smem().alloc<T>(m, k);
  (void)blk.smem().alloc<T>(k, n);
  (void)blk.smem().alloc<T>(m, n);

  const std::size_t row_chunk = m / p;
  const std::size_t kt = cublasdx_kstep(k);

  // Staging: warps cooperatively copy A and B into shared memory, one
  // stripe fragment at a time (real kernels stream this copy; holding both
  // stripes at once would blow the register file at large orders). The main
  // loop reads its operands from the source matrices, so the copy is
  // charged, not performed.
  blk.phase([&](sim::Warp& w) {
    w.set_gmem_charging(charge_global_io);
    charge_staging(w, w.alloc_fragment<T>(row_chunk, k));
    if (k % p == 0)
      charge_staging(w, w.alloc_fragment<T>(k / p, n));
    else if (w.id() == 0)
      charge_staging(w, w.alloc_fragment<T>(k, n));
  });
  blk.sync();

  // Main loop: every k-step, every warp re-reads its operands from shared
  // memory (the staged-pipeline pattern KAMI avoids). The B panel streams
  // in column chunks to bound register pressure.
  std::vector<sim::Fragment<Acc>> Ci;
  Ci.reserve(p);
  blk.phase([&](sim::Warp& w) { Ci.emplace_back(w.regs(), row_chunk, n); });
  const std::size_t nt = n < 32 ? n : 32;

  for (std::size_t k0 = 0; k0 < k; k0 += kt) {
    const std::size_t kw = (k0 + kt <= k) ? kt : k - k0;
    blk.phase([&](sim::Warp& w) {
      const auto i = static_cast<std::size_t>(w.id());
      auto a_slice = w.alloc_fragment<T>(row_chunk, kw);
      // The A column slice is k-strided inside SmA, so the cost is charged
      // explicitly while the values come from the staged copy's source.
      w.charge_smem_read_traffic(a_slice.bytes());
      if (w.numerics_enabled()) stage_window(a_slice, A, i * row_chunk, k0);
      for (std::size_t c0 = 0; c0 < n; c0 += nt) {
        const std::size_t cw = (c0 + nt <= n) ? nt : n - c0;
        auto b_chunk = w.alloc_fragment<T>(kw, cw);
        w.charge_smem_read_traffic(b_chunk.bytes());
        if (w.numerics_enabled()) stage_window(b_chunk, B, k0, c0);
        w.mma(Ci[i], 0, c0, a_slice.view(), b_chunk.view());
      }
    });
    blk.sync();
  }

  // Epilogue: C narrowed back through shared memory (and to global when
  // charged).
  blk.phase([&](sim::Warp& w) {
    const auto i = static_cast<std::size_t>(w.id());
    w.charge_smem_write_traffic(row_chunk * n * sizeof(T));
    w.store_global_narrowed(out.C, Ci[i], i * row_chunk, 0);
  });
  blk.sync();

  out.profile = sim::profile_block(blk, model::gemm_flops(m, n, k));
  out.note = "smem " + std::to_string(smem_need / 1024) + " KiB";
  return out;
}

}  // namespace kami::baselines
