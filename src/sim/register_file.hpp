// Per-warp register file with the hardware capacity limit (§4.7: 255
// 32-bit registers per thread). Fragments allocate from here; exceeding the
// limit throws RegisterOverflow, which the algorithm layer converts into the
// paper's k-slice register/shared-memory cooperation.
//
// The file is built knowing its warp's ExecMode. The byte accounting below
// runs in every mode, so feasibility errors are mode-independent; only a
// warp that moves data gets fragments that hold elements (sim/fragment.hpp).
#pragma once

#include <cstddef>
#include <string>

#include "sim/exec_mode.hpp"
#include "util/require.hpp"
#include "verify/invariants.hpp"

namespace kami::sim {

class RegisterOverflow : public kami::PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

class RegisterFile {
 public:
  RegisterFile(std::size_t capacity_bytes, ExecMode mode)
      : capacity_(capacity_bytes), holds_elements_(mode_computes(mode)) {}

  /// Do fragments allocated here hold their elements (a mode that moves data)?
  bool holds_elements() const noexcept { return holds_elements_; }

  void allocate(std::size_t bytes) {
#if KAMI_CHECK_INVARIANTS
    // Chaos/test hook: the countdown-th allocation fails as if the register
    // file were exhausted, then the hook disarms (one-shot transient fault).
    if (auto& hooks = verify::fault_hooks(); hooks.alloc_fail_countdown >= 0) {
      if (hooks.alloc_fail_countdown == 0) {
        hooks.alloc_fail_countdown = -1;
        throw RegisterOverflow("injected allocation failure (verify::FaultHooks): " +
                               std::to_string(bytes) + " B request denied");
      }
      --hooks.alloc_fail_countdown;
    }
#endif
    if (used_ + bytes > capacity_) {
      throw RegisterOverflow("register file exhausted: need " + std::to_string(bytes) +
                             " B, used " + std::to_string(used_) + " of " +
                             std::to_string(capacity_) + " B");
    }
    used_ += bytes;
    if (used_ > high_water_) high_water_ = used_;
    KAMI_INVARIANT(used_ <= capacity_ && high_water_ <= capacity_,
                   "register allocation exceeded file capacity");
  }

  void release(std::size_t bytes) noexcept {
    used_ = bytes > used_ ? 0 : used_ - bytes;
  }

  std::size_t used() const noexcept { return used_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Peak bytes ever resident — drives the Fig 14 register-usage comparison.
  std::size_t high_water() const noexcept { return high_water_; }

  /// Peak usage expressed as 32-bit registers per thread.
  double high_water_regs_per_thread(int threads_per_warp) const noexcept {
    return static_cast<double>(high_water_) / 4.0 / static_cast<double>(threads_per_warp);
  }

 private:
  std::size_t capacity_;
  bool holds_elements_;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace kami::sim
