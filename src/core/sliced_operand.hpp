// Register/shared-memory cooperation (§4.7).
//
// Matrices larger than the register file are sliced along the k dimension in
// MMA-granularity slices (default width 16, "to align with the MMA unit
// granularity"); a tunable fraction of slices per stage chunk is spilled to a
// per-warp private shared-memory region. SlicedOperand owns one warp's
// resident fragment plus its spill tiles and serves slices to the kernels:
// resident slices as register views, spilled slices as charged shared-memory
// reads. The spill ratio is the Fig 10 tuning knob.
//
// The same file holds the writeback that narrows a warp's accumulator into
// the host C (store_result). A timing run passes no host matrix to either:
// its block holds no element, and every op charges from the shape alone.
#pragma once

#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/block.hpp"
#include "types/matrix.hpp"

namespace kami::core {

enum class SliceAxis : std::uint8_t { Cols, Rows };

/// Largest divisor of `chunk` that is <= `preferred` (16 by default): keeps
/// slices aligned to the MMA k granularity while handling chunks like 24.
std::size_t pick_slice_width(std::size_t chunk, std::size_t preferred = 16);

/// Static description of a sliced operand; also used by the demand planner
/// before any allocation happens.
struct SliceLayout {
  std::size_t rows = 0;
  std::size_t cols = 0;
  SliceAxis axis = SliceAxis::Cols;
  std::size_t slice_w = 0;       ///< extent of one slice along `axis`
  std::size_t n_slices = 0;
  std::size_t chunk_slices = 0;  ///< slices per stage chunk (spill pattern period)
  std::size_t resident_per_chunk = 0;

  static SliceLayout make(std::size_t rows, std::size_t cols, SliceAxis axis,
                          std::size_t slice_w, std::size_t chunk_slices, double smem_ratio);

  bool is_resident(std::size_t s) const;
  /// Index of slice `s` among resident slices (packing offset); only valid
  /// when is_resident(s).
  std::size_t resident_index(std::size_t s) const;

  std::size_t resident_slices_total() const;
  std::size_t spilled_slices_total() const { return n_slices - resident_slices_total(); }

  std::size_t slice_rows() const { return axis == SliceAxis::Rows ? slice_w : rows; }
  std::size_t slice_cols() const { return axis == SliceAxis::Cols ? slice_w : cols; }
  std::size_t slice_elems() const { return slice_rows() * slice_cols(); }

  std::size_t reg_bytes(std::size_t elem_bytes) const {
    return resident_slices_total() * slice_elems() * elem_bytes;
  }
  std::size_t smem_bytes(std::size_t elem_bytes) const {
    return spilled_slices_total() * slice_elems() * elem_bytes;
  }
};

/// Writeback of one warp's accumulator: narrow it into C at (r0, c0). A
/// timing run has no C (null) and charges the same store.
template <Scalar T>
void store_result(sim::Warp& w, Matrix<T>* C,
                  const sim::Fragment<typename num_traits<T>::acc_t>& acc, std::size_t r0,
                  std::size_t c0) {
  if (C != nullptr)
    w.store_global_narrowed(*C, acc, r0, c0);
  else
    w.charge_global_store(acc.rows() * acc.cols() * sizeof(T));
}

template <Scalar T>
class SlicedOperand {
 public:
  /// Materialize one warp's operand from the host matrix window at (r0, c0).
  /// `src` is null in a timing run: nothing is packed or filled, and the
  /// placement is charged all the same. Placement costs follow the warp's
  /// gmem-charging mode: in the paper's block-level loop the data is already
  /// resident and placement is free; batched drivers charge the global loads
  /// and spill writes.
  SlicedOperand(sim::Warp& w, sim::SharedMemory& smem, const SliceLayout& lay,
                const Matrix<T>* src, std::size_t r0, std::size_t c0)
      : lay_(lay),
        frag_(w.regs(),
              lay.axis == SliceAxis::Rows ? lay.resident_slices_total() * lay.slice_w
                                          : lay.rows,
              lay.axis == SliceAxis::Cols ? lay.resident_slices_total() * lay.slice_w
                                          : lay.cols) {
    spill_.reserve(lay_.spilled_slices_total());
    const std::size_t slice_bytes = lay_.slice_elems() * sizeof(T);
    for (std::size_t s = 0; s < lay_.n_slices; ++s) {
      const auto [sr, sc] = slice_origin(s);
      if (lay_.is_resident(s)) {
        // Pack into the resident fragment at the resident index. Source and
        // destination rows are both contiguous, so each slice row is one
        // memcpy (the seed packed element by element).
        if (src != nullptr && lay_.slice_cols() > 0) {
          const std::size_t off = lay_.resident_index(s) * lay_.slice_w;
          for (std::size_t r = 0; r < lay_.slice_rows(); ++r) {
            const std::size_t fr = lay_.axis == SliceAxis::Rows ? off + r : r;
            const std::size_t fc = lay_.axis == SliceAxis::Cols ? off : 0;
            std::memcpy(frag_.row_data(fr) + fc, &(*src)(r0 + sr + r, c0 + sc),
                        lay_.slice_cols() * sizeof(T));
          }
        }
        w.charge_global_traffic(slice_bytes);
      } else {
        // The tile is allocated in every mode so smem feasibility (and the
        // overflow error) is mode-independent; only the byte fill is skipped.
        // Rows stream from the source matrix straight into the tile — the
        // seed staged each slice through a per-call std::vector.
        auto tile = smem.alloc<T>(lay_.slice_rows(), lay_.slice_cols());
        if (src != nullptr && lay_.slice_cols() > 0)
          for (std::size_t r = 0; r < lay_.slice_rows(); ++r)
            smem.write_row(tile, r, &(*src)(r0 + sr + r, c0 + sc), lay_.slice_cols());
        if (w.gmem_charging()) {
          w.charge_global_traffic(slice_bytes);
          w.charge_smem_write_traffic(slice_bytes);
        }
        spill_.push_back(tile);
      }
    }
  }

  const SliceLayout& layout() const noexcept { return lay_; }

  /// Register view of a resident slice.
  sim::FragView<T> resident_slice(std::size_t s) const {
    KAMI_REQUIRE(lay_.is_resident(s));
    const std::size_t off = lay_.resident_index(s) * lay_.slice_w;
    if (lay_.axis == SliceAxis::Cols)
      return frag_.view(0, off, lay_.rows, lay_.slice_w);
    return frag_.view(off, 0, lay_.slice_w, lay_.cols);
  }

  /// Shared-memory tile of a spilled slice (readable by any warp).
  const sim::SmemTile<T>& spilled_slice(std::size_t s) const {
    KAMI_REQUIRE(!lay_.is_resident(s));
    return spill_.at(spill_index(s));
  }

  /// Fetch slice `s` into `scratch` for compute: a register view copy for
  /// resident slices (cheap Reg2Reg) or a charged shared-memory read.
  void fetch_slice(sim::Warp& w, std::size_t s, sim::Fragment<T>& scratch,
                   double theta_r = 1.0) const {
    KAMI_REQUIRE(scratch.rows() == lay_.slice_rows() && scratch.cols() == lay_.slice_cols());
    if (lay_.is_resident(s)) {
      w.copy_reg(scratch, resident_slice(s));
    } else {
      w.load_smem(scratch, spilled_slice(s), theta_r);
    }
  }

 private:
  std::pair<std::size_t, std::size_t> slice_origin(std::size_t s) const {
    return lay_.axis == SliceAxis::Cols ? std::pair{std::size_t{0}, s * lay_.slice_w}
                                        : std::pair{s * lay_.slice_w, std::size_t{0}};
  }

  std::size_t spill_index(std::size_t s) const {
    std::size_t idx = 0;
    for (std::size_t i = 0; i < s; ++i)
      if (!lay_.is_resident(i)) ++idx;
    return idx;
  }

  SliceLayout lay_;
  sim::Fragment<T> frag_;
  std::vector<sim::SmemTile<T>> spill_;
};

}  // namespace kami::core
