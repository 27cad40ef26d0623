// Host-side operand staging for the comparator kernels' Full-mode data plane.
//
// The block baselines read their operand fragments' values straight from the
// source matrices and charge the simulated shared-memory traffic
// explicitly, because their strided smem views are not modelled as tiles.
// stage_window is that value copy: one memcpy per row of the in-bounds
// part, and +0 in every padded element — the same row-granular movement
// the KAMI kernels get from Warp::load_global. It charges nothing.
// charge_staging is the other half: the cost of the kernel's global ->
// shared staging copy, whose bytes nothing would read.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "sim/fragment.hpp"
#include "sim/warp.hpp"
#include "types/matrix.hpp"

namespace kami::baselines {

/// Elements of a length-`size` window starting at `base` that lie below
/// `limit`: the valid extent of a zero-padded tile along one dimension.
inline std::size_t valid_extent(std::size_t base, std::size_t size, std::size_t limit) {
  return base < limit ? std::min(size, limit - base) : 0;
}

/// dst = the dst.rows() x dst.cols() window of `src` at (r0, c0), with every
/// element outside `src` set to +0.
template <Scalar T>
void stage_window(sim::Fragment<T>& dst, const Matrix<T>& src, std::size_t r0,
                  std::size_t c0) {
  const std::size_t rows = valid_extent(r0, dst.rows(), src.rows());
  const std::size_t cols = valid_extent(c0, dst.cols(), src.cols());
  for (std::size_t r = 0; r < rows; ++r) {
    T* row = dst.row_data(r);
    if (cols > 0) std::memcpy(row, src.data() + (r0 + r) * src.cols() + c0, cols * sizeof(T));
    std::fill(row + cols, row + dst.cols(), T{});
  }
  std::fill(dst.data() + rows * dst.cols(), dst.data() + dst.rows() * dst.cols(), T{});
}

/// Charge what staging `stripe` from global into shared memory costs, in
/// the copy's order — Warp::load_global then Warp::store_smem, same cycles
/// and counters — without copying: every operand is later read from the
/// source matrices through stage_window. Honors the gmem-charging flag.
template <Scalar T>
void charge_staging(sim::Warp& w, const sim::Fragment<T>& stripe) {
  w.charge_global_traffic(stripe.bytes());
  w.charge_smem_write_traffic(stripe.bytes());
}

}  // namespace kami::baselines
