// ThreadBlock: the SPMD execution container.
//
// A kernel is a sequence of phases separated by __syncthreads barriers.
// `phase(f)` runs f once per warp in warp-id order — the deterministic stand-in
// for the hardware's round-robin warp scheduler — with each warp advancing its
// own clock and contending for the block's shared resources. `sync()` aligns
// all warp clocks to the maximum (barrier). Identical programs produce
// identical cycle counts on every run (tested).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/device.hpp"
#include "sim/exec_mode.hpp"
#include "sim/resources.hpp"
#include "sim/shared_memory.hpp"
#include "sim/warp.hpp"
#include "verify/invariants.hpp"

namespace kami::sim {

class ThreadBlock {
 public:
  /// A block exists to time, so it refuses NumericsOnly: that mode runs
  /// core::numeric_gemm and never builds a block.
  ThreadBlock(const DeviceSpec& dev, int num_warps, ExecMode mode = ExecMode::Full)
      : dev_(&dev),
        smem_(dev.smem_bytes_per_block, dev.smem_bytes_per_cycle(), dev.smem_latency_cycles,
              mode),
        tc_(static_cast<std::size_t>(dev.tensor_cores_per_sm)) {
    KAMI_REQUIRE(mode != ExecMode::NumericsOnly,
                 std::string("a ThreadBlock always times; ") + exec_mode_name(mode) +
                     " never builds one");
    KAMI_REQUIRE(num_warps >= 1 && num_warps <= 64, "warp count out of range");
    warps_.reserve(static_cast<std::size_t>(num_warps));
    for (int w = 0; w < num_warps; ++w)
      warps_.push_back(std::make_unique<Warp>(w, dev, mode, warp_metrics_, smem_, tc_,
                                              gmem_port_, vector_pipe_));
  }
  // Warps hold the addresses of the block's shared memory, units, ports and
  // metric handles, so a block is never copied or moved.
  ThreadBlock(const ThreadBlock&) = delete;
  ThreadBlock& operator=(const ThreadBlock&) = delete;

  const DeviceSpec& device() const noexcept { return *dev_; }

  /// Arm every warp's cycle-budget watchdog (GemmOptions::deadline_cycles);
  /// 0 disarms. See sim/deadline.hpp.
  void set_deadline(Cycles cycles) noexcept {
    for (auto& w : warps_) w->set_deadline(cycles);
  }
  int num_warps() const noexcept { return static_cast<int>(warps_.size()); }
  SharedMemory& smem() noexcept { return smem_; }
  Warp& warp(int i) { return *warps_.at(static_cast<std::size_t>(i)); }

  /// Run one SPMD phase: the body executes once per warp, in warp-id order.
  /// Templated on the body (rather than std::function) so the per-phase
  /// type-erasure allocation and indirect call stay out of the innermost
  /// simulator loop.
  template <class Body>
  void phase(Body&& body) {
    for (auto& w : warps_) body(*w);
  }

  /// __syncthreads: advance every warp to the block-wide maximum clock plus
  /// the barrier's own latency.
  void sync() {
    Cycles t = 0.0;
    for (const auto& w : warps_)
      if (w->clock() > t) t = w->clock();
    t += dev_->sync_latency_cycles;
    for (auto& w : warps_) w->wait_until(t);
#if KAMI_CHECK_INVARIANTS
    for (const auto& w : warps_)
      KAMI_INVARIANT(w->clock() == t, "sync barrier must align every warp clock");
#endif
    syncs_.increment();
  }

  /// Wall cycles so far (max over warps).
  Cycles cycles() const {
    Cycles t = 0.0;
    for (const auto& w : warps_)
      if (w->clock() > t) t = w->clock();
    return t;
  }

  /// Per-category cycles averaged over warps — the Fig 15 breakdown.
  CycleBreakdown mean_breakdown() const {
    CycleBreakdown sum;
    for (const auto& w : warps_) sum += w->breakdown();
    const double n = static_cast<double>(warps_.size());
    return {sum.smem_comm / n, sum.gmem / n, sum.reg_copy / n, sum.compute / n,
            sum.sync_wait / n};
  }

  // Resource demand per kernel execution; drives the steady-state
  // throughput model in sim/throughput.hpp.
  Cycles tc_busy_cycles() const noexcept { return tc_.busy_cycles(); }
  Cycles smem_busy_cycles() const noexcept { return smem_.port().busy_cycles(); }
  Cycles gmem_busy_cycles() const noexcept { return gmem_port_.busy_cycles(); }
  Cycles vector_busy_cycles() const noexcept { return vector_pipe_.busy_cycles(); }

  /// Publish every warp's batched counter totals into the metric registry.
  /// Warps also flush on destruction; this exists so code that profiles a
  /// live block (sim/throughput.cpp) sees up-to-date registry counters.
  void flush_metrics() const {
    for (const auto& w : warps_) w->flush_metrics();
  }

  /// Peak register bytes across warps (Fig 14) and peak smem bytes (§5.6.1).
  std::size_t max_reg_high_water() const {
    std::size_t hw = 0;
    for (const auto& w : warps_)
      if (w->regs().high_water() > hw) hw = w->regs().high_water();
    return hw;
  }
  std::size_t smem_high_water() const noexcept { return smem_.high_water_bytes(); }

 private:
  const DeviceSpec* dev_;
  SharedMemory smem_;
  UnitPool tc_;
  PortTimeline gmem_port_;
  PortTimeline vector_pipe_;
  // Resolved once per block and lent to every warp; declared before warps_
  // so it outlives the flush in each warp's destructor.
  WarpMetricHandles warp_metrics_ = WarpMetricHandles::acquire();
  // unique_ptr: Warp is neither copyable nor movable (it owns a RegisterFile
  // referenced by live fragments).
  std::vector<std::unique_ptr<Warp>> warps_;
  obs::Counter& syncs_ = obs::MetricRegistry::current().counter("sim.block.syncs");
};

}  // namespace kami::sim
