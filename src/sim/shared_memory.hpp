// On-chip shared memory: a capacity-limited byte arena with a bump allocator
// and a single data port whose occupancy models banked bandwidth B_sm with
// bank-conflict factors theta_r / theta_w (Table 2).
//
// In Full, the one block mode that moves data, the store holds real bytes —
// a kernel that reads a tile before any warp wrote it gets zeros and fails the
// numerical checks, so communication bugs are caught by correctness tests, not
// just by cycle counts. In TimingOnly no cycle depends on a value, so the
// store holds no bytes: the capacity is only the number the allocator checks
// against, and read/write/write_row assert that they are never reached.
#pragma once

#include <cstddef>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/exec_mode.hpp"
#include "sim/resources.hpp"
#include "util/require.hpp"
#include "verify/invariants.hpp"

namespace kami::sim {

/// Thrown when a kernel's shared-memory footprint exceeds the device limit.
class SharedMemoryOverflow : public kami::PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// A typed rectangular region inside shared memory, in elements of T.
template <typename T>
struct SmemTile {
  std::size_t byte_offset = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;

  std::size_t bytes() const noexcept { return rows * cols * sizeof(T); }
};

class SharedMemory {
 public:
  /// `mode` is the owning block's: only a mode that moves data
  /// (sim::mode_computes) gets a zero-filled byte store.
  SharedMemory(std::size_t capacity_bytes, double bytes_per_cycle, Cycles latency,
               ExecMode mode)
      : capacity_(capacity_bytes),
        bytes_(mode_computes(mode) ? capacity_bytes : 0, std::byte{0}),
        bytes_per_cycle_(bytes_per_cycle),
        latency_(latency) {
    KAMI_REQUIRE(bytes_per_cycle > 0.0);
  }

  /// Allocate a rows x cols tile of T (16-byte aligned).
  template <typename T>
  SmemTile<T> alloc(std::size_t rows, std::size_t cols) {
    const std::size_t want = rows * cols * sizeof(T);
    top_ = (top_ + 15u) & ~std::size_t{15};
    if (top_ + want > capacity_) {
      throw SharedMemoryOverflow("shared memory exhausted: need " + std::to_string(want) +
                                 " B at offset " + std::to_string(top_) + ", capacity " +
                                 std::to_string(capacity_) + " B");
    }
    SmemTile<T> tile{top_, rows, cols};
    top_ += want;
    if (top_ > high_water_) high_water_ = top_;
    KAMI_INVARIANT(top_ <= capacity_ && high_water_ <= capacity_,
                   "shared-memory allocator exceeded capacity");
    tile_allocs_.increment();
    high_water_gauge_.set_max(static_cast<double>(high_water_));
    return tile;
  }

  /// Free everything (kernels allocate per launch).
  void reset_allocations() noexcept { top_ = 0; }

  std::size_t bytes_allocated() const noexcept { return top_; }
  std::size_t high_water_bytes() const noexcept { return high_water_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// True when the store holds its capacity in bytes (a mode that moves data).
  bool holds_bytes() const noexcept { return bytes_.size() == capacity_; }

  /// Port occupancy for moving `n` bytes with conflict factor theta.
  Cycles transfer_occupancy(std::size_t n, double theta) const {
    KAMI_REQUIRE(theta > 0.0 && theta <= 1.0, "bank conflict factor must be in (0,1]");
    const Cycles occ = static_cast<double>(n) / (theta * bytes_per_cycle_);
    KAMI_INVARIANT(occ >= 0.0, "smem transfer occupancy must be non-negative");
    return occ;
  }

  Cycles latency() const noexcept { return latency_; }
  PortTimeline& port() noexcept { return port_; }
  const PortTimeline& port() const noexcept { return port_; }

  // Raw data plumbing used by Warp's typed copy helpers.
  template <typename T>
  void write(const SmemTile<T>& tile, const T* src, std::size_t count) {
    KAMI_ASSERT(holds_bytes());
    KAMI_ASSERT(count <= tile.rows * tile.cols);
    std::memcpy(bytes_.data() + tile.byte_offset, src, count * sizeof(T));
  }
  template <typename T>
  void read(const SmemTile<T>& tile, T* dst, std::size_t count) const {
    KAMI_ASSERT(holds_bytes());
    KAMI_ASSERT(count <= tile.rows * tile.cols);
    std::memcpy(dst, bytes_.data() + tile.byte_offset, count * sizeof(T));
  }

  /// Write one row of a tile directly from a contiguous source row. Lets
  /// fragment views copy into shared memory row by row with no linearized
  /// staging buffer (the old per-call std::vector in copy_view_to_smem).
  template <typename T>
  void write_row(const SmemTile<T>& tile, std::size_t row, const T* src,
                 std::size_t count) {
    KAMI_ASSERT(holds_bytes());
    KAMI_ASSERT(row < tile.rows && count <= tile.cols);
    std::memcpy(bytes_.data() + tile.byte_offset + row * tile.cols * sizeof(T), src,
                count * sizeof(T));
  }

 private:
  std::size_t capacity_;
  std::vector<std::byte> bytes_;  ///< empty when the block moves no data
  std::size_t top_ = 0;
  std::size_t high_water_ = 0;
  double bytes_per_cycle_;
  Cycles latency_;
  PortTimeline port_;
  obs::Counter& tile_allocs_ = obs::MetricRegistry::current().counter("sim.smem.tile_allocs");
  obs::Gauge& high_water_gauge_ =
      obs::MetricRegistry::current().gauge("sim.smem.high_water_bytes");
};

}  // namespace kami::sim
