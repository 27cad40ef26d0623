// SYCL-Bench-like GEMM (the paper's Intel Max 1100 comparator, §5.2.3).
//
// SYCL-Bench's GEMM kernel is a classic local-memory-tiled work-group GEMM
// executed on the vector (XVE) pipeline — it does not use joint_matrix, so
// it never touches the XMX units. The cost structure is therefore scalar
// FMA throughput plus per-k-step local-memory traffic, which is why KAMI's
// tensor-core formulation is ~5x faster on the same device (Fig 8(g)).
#pragma once

#include <vector>

#include "baselines/baseline_result.hpp"
#include "baselines/staging.hpp"
#include "model/cost_model.hpp"
#include "sim/block.hpp"

namespace kami::baselines {

template <Scalar T>
BaselineResult<T> syclbench_gemm(const sim::DeviceSpec& dev, const Matrix<T>& A,
                                 const Matrix<T>& B, int warps = 4,
                                 bool charge_global_io = false,
                                 sim::ExecMode mode = sim::ExecMode::Full) {
  using Acc = typename num_traits<T>::acc_t;
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();
  KAMI_REQUIRE(B.rows() == k, "inner dimensions must agree");
  const auto p = static_cast<std::size_t>(warps);
  KAMI_REQUIRE(warps >= 1 && m % p == 0, "work-group shape must divide m");

  BaselineResult<T> out{Matrix<T>(m, n), {}, true, "vector-pipeline GEMM"};
  const std::size_t smem_need = (m * k + k * n) * sizeof(T);
  if (smem_need > dev.smem_bytes_per_block) {
    out.feasible = false;
    out.note = "local-memory tiles exceed SLM capacity";
    return out;
  }

  sim::ThreadBlock blk(dev, warps, mode);
  (void)blk.smem().alloc<T>(m, k);
  (void)blk.smem().alloc<T>(k, n);
  const std::size_t row_chunk = m / p;
  const std::size_t kt = k < 16 ? k : 16;

  // Stage A and B into local memory, streaming stripes so the staging
  // buffers never exceed the register file. The main loop reads its
  // operands from the source matrices, so the copy is charged, not
  // performed.
  blk.phase([&](sim::Warp& w) {
    w.set_gmem_charging(charge_global_io);
    const auto i = static_cast<std::size_t>(w.id());
    charge_staging(w, w.alloc_fragment<T>(row_chunk, k));
    // B row stripes round-robin over warps; 16-row chunks bound registers.
    for (std::size_t r0 = i * 16; r0 < k; r0 += p * 16)
      charge_staging(w, w.alloc_fragment<T>((r0 + 16 <= k) ? 16 : k - r0, n));
  });
  blk.sync();

  std::vector<sim::Fragment<Acc>> Ci;
  Ci.reserve(p);
  blk.phase([&](sim::Warp& w) { Ci.emplace_back(w.regs(), row_chunk, n); });

  for (std::size_t k0 = 0; k0 < k; k0 += kt) {
    const std::size_t kw = (k0 + kt <= k) ? kt : k - k0;
    blk.phase([&](sim::Warp& w) {
      const auto i = static_cast<std::size_t>(w.id());
      auto a_slice = w.alloc_fragment<T>(row_chunk, kw);
      auto b_panel = w.alloc_fragment<T>(kw, n);
      w.charge_smem_read_traffic(a_slice.bytes());
      w.charge_smem_read_traffic(b_panel.bytes());
      if (w.numerics_enabled()) {
        stage_window(a_slice, A, i * row_chunk, k0);
        stage_window(b_panel, B, k0, 0);
      }
      // The defining difference: scalar FMAs on the vector pipe, no MMA.
      w.fma_scalar(Ci[i], a_slice.view(), b_panel.view());
    });
    blk.sync();
  }

  blk.phase([&](sim::Warp& w) {
    const auto i = static_cast<std::size_t>(w.id());
    w.store_global_narrowed(out.C, Ci[i], i * row_chunk, 0);
  });
  blk.sync();

  out.profile = sim::profile_block(blk, model::gemm_flops(m, n, k));
  return out;
}

}  // namespace kami::baselines
