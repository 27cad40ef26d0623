// Register fragments: warp-owned matrix tiles living in the register file.
//
// A Fragment allocates its bytes from the owning warp's RegisterFile (RAII),
// so register pressure is enforced by construction: a kernel that keeps too
// much data warp-local throws RegisterOverflow exactly where real code would
// spill, and the §4.7 cooperation layer handles it. The accounting runs in
// every mode; the rows x cols elements exist only when the register file's
// warp moves data, so a TimingOnly fragment is its shape and nothing else.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/register_file.hpp"
#include "types/numeric_traits.hpp"
#include "util/require.hpp"

namespace kami::sim {

template <Scalar T>
class Fragment;

/// Lightweight rectangular view into a fragment (e.g. the paper's
/// A_i[:][z*k/p : (z+1)*k/p] column slice fed to the tensor core).
template <Scalar T>
class FragView {
 public:
  FragView(const Fragment<T>& frag, std::size_t r0, std::size_t c0, std::size_t rows,
           std::size_t cols)
      : frag_(&frag), r0_(r0), c0_(c0), rows_(rows), cols_(cols) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  const T& operator()(std::size_t r, std::size_t c) const {
    KAMI_ASSERT(r < rows_ && c < cols_);
    return (*frag_)(r0_ + r, c0_ + c);
  }

  /// Pointer to this view's row `r` (cols() contiguous elements): fragment
  /// storage is row-major, so a view row is a contiguous slice of the
  /// underlying fragment row. This is what lets the Full-mode data plane
  /// decode/copy whole rows through the span kernels instead of walking
  /// operator() element by element.
  const T* row(std::size_t r) const {
    KAMI_ASSERT(frag_->holds_elements());
    return frag_->data() + (r0_ + r) * frag_->cols() + c0_;
  }

  /// Elements from one view row to the next (the fragment's width), so a
  /// kernel can read the whole view in place as a strided matrix.
  std::size_t row_stride() const noexcept { return frag_->cols(); }

  /// A sub-window of this view (same underlying fragment).
  FragView window(std::size_t r0, std::size_t c0, std::size_t rows, std::size_t cols) const {
    KAMI_REQUIRE(r0 + rows <= rows_ && c0 + cols <= cols_);
    return FragView(*frag_, r0_ + r0, c0_ + c0, rows, cols);
  }

  std::size_t bytes() const noexcept { return rows_ * cols_ * sizeof(T); }

 private:
  const Fragment<T>* frag_;
  std::size_t r0_, c0_, rows_, cols_;
};

template <Scalar T>
class Fragment {
 public:
  Fragment(RegisterFile& regs, std::size_t rows, std::size_t cols)
      : regs_(&regs),
        rows_(rows),
        cols_(cols),
        data_(regs.holds_elements() ? rows * cols : 0, T{}) {
    regs_->allocate(bytes());
  }

  ~Fragment() {
    if (regs_ != nullptr) regs_->release(bytes());
  }

  Fragment(Fragment&& o) noexcept
      : regs_(std::exchange(o.regs_, nullptr)),
        rows_(o.rows_),
        cols_(o.cols_),
        data_(std::move(o.data_)) {}
  Fragment& operator=(Fragment&&) = delete;
  Fragment(const Fragment&) = delete;
  Fragment& operator=(const Fragment&) = delete;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t bytes() const noexcept { return rows_ * cols_ * sizeof(T); }

  /// True when the fragment holds its rows x cols elements (its warp moves
  /// data); false in TimingOnly and after a move.
  bool holds_elements() const noexcept { return data_.size() == rows_ * cols_; }

  T& operator()(std::size_t r, std::size_t c) {
    KAMI_ASSERT(holds_elements());
    KAMI_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    KAMI_ASSERT(holds_elements());
    KAMI_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }

  /// Pointer to row `r` (cols() contiguous elements, row-major storage).
  T* row_data(std::size_t r) {
    KAMI_ASSERT(holds_elements());
    return data_.data() + r * cols_;
  }
  const T* row_data(std::size_t r) const {
    KAMI_ASSERT(holds_elements());
    return data_.data() + r * cols_;
  }

  FragView<T> view() const { return FragView<T>(*this, 0, 0, rows_, cols_); }
  FragView<T> view(std::size_t r0, std::size_t c0, std::size_t rows, std::size_t cols) const {
    KAMI_REQUIRE(r0 + rows <= rows_ && c0 + cols <= cols_);
    return FragView<T>(*this, r0, c0, rows, cols);
  }

  void fill(T v) {
    for (auto& x : data_) x = v;
  }

 private:
  RegisterFile* regs_;
  std::size_t rows_, cols_;
  std::vector<T> data_;
};

}  // namespace kami::sim
