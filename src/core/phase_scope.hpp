// Kernel phases as spans. When GemmOptions::record_regions is set, a kernel
// builds an obs::TraceBuilder whose root span is the kernel ("kami_1d", ...)
// and brackets every phase occurrence with a PhaseScope, which opens and
// closes one child span. The builder's logical clock mirrors the block's
// simulated clock: it is moved to blk.cycles() before each open/close and
// before finish(). This lives in core/ because kami_obs must not depend on
// the simulator.
#pragma once

#include <memory>
#include <string_view>

#include "obs/trace_span.hpp"
#include "sim/block.hpp"

namespace kami::core {

/// RAII bracket for one phase occurrence. A no-op on a null builder, so
/// kernels instrument unconditionally and pay nothing when recording is off.
class PhaseScope {
 public:
  PhaseScope(obs::TraceBuilder* phases, const sim::ThreadBlock& blk,
             std::string_view name)
      : phases_(phases), blk_(blk) {
    if (phases_ == nullptr) return;
    phases_->advance_to(blk_.cycles());
    phases_->open(name);
  }
  /// Close the span early; the destructor then does nothing.
  void close() {
    if (phases_ == nullptr) return;
    phases_->advance_to(blk_.cycles());
    phases_->close();
    phases_ = nullptr;
  }
  ~PhaseScope() { close(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  obs::TraceBuilder* phases_;
  const sim::ThreadBlock& blk_;
};

/// Close the kernel's root span at the block's clock and hand the finished
/// trace out; nullptr when `phases` is null (recording off).
inline std::shared_ptr<const obs::RequestTrace> finish_phases(
    obs::TraceBuilder* phases, const sim::ThreadBlock& blk) {
  if (phases == nullptr) return nullptr;
  phases->advance_to(blk.cycles());
  return std::make_shared<const obs::RequestTrace>(phases->finish());
}

}  // namespace kami::core
