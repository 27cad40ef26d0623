// The warp execution context: a clock plus typed, cycle-charged operations
// over the block's memory spaces and compute units.
//
// Operation cost model (matches Section 4's formulas):
//   Reg2SMem   — port occupancy bytes/(theta_w * B_sm); the writing warp does
//                not stall on L_sm (stores retire through the store path and
//                visibility is established by the following __syncthreads).
//   SMem2Reg   — L_sm latency + port occupancy bytes/(theta_r * B_sm); reads
//                from concurrent warps serialize on the port, giving the
//                (p-1)/p read terms of formulas (2), (6), (10).
//   Reg2Reg    — 1 cycle + bytes / register-move bandwidth (the paper treats
//                intra-warp transfer as negligible; it is, but it is modelled).
//   MMA        — ceil-padded to the device's instruction shape; occupies the
//                earliest-free of n_tc units for flops/O_tc cycles. The warp
//                itself experiences flops/O_tc/mma_efficiency (the §5.6.2
//                issue-efficiency gap), while the unit is booked at the ideal
//                rate so multi-block steady state can still reach peak.
//   Global     — gmem latency + bytes/bandwidth on the per-SM gmem port.
//
// Data plane (numerics half of each op). The fragment ops run on the same
// host kernel as the NumericsOnly fast path (core/vector_kernels.hpp):
// mma/fma_scalar accumulate into the C fragment, at its row stride, with
// gemm_accumulate — fp32/fp64 operands straight from their fragment rows,
// narrower types after decoding the rows through the types/decode_tables
// LUT spans into arena buffers; mma_padded multiplies only the valid window
// of zero-padded operands; add_inplace uses the element-wise add_span;
// fragment<->smem/global copies are row-granular memcpys. Each C element is
// still one ascending-k sequential chain in accumulator precision, narrowed
// once — so results are bit-identical to the scalar seed loops and to
// NumericsOnly (differential-tested, in SIMD and KAMI_NO_SIMD builds).
// Scratch comes from the per-thread core::Arena, marked and rewound per op:
// steady-state simulation performs zero heap allocations in the data plane.
//
// The timing half of every op is untouched: clock advances, port/unit
// acquires, and trace record() calls are exactly the seed model, so cycle
// profiles are bit-identical too. Hot-path metric counters are batched in
// PendingWarpMetrics (plain doubles) and flushed to the atomic registry
// handles at block-profile/destruction time instead of per op.
#pragma once

#include <cstddef>
#include <cstring>
#include <string>
#include <type_traits>

#include "core/arena.hpp"
#include "core/vector_kernels.hpp"
#include "obs/metrics.hpp"
#include "sim/deadline.hpp"
#include "sim/device.hpp"
#include "sim/exec_mode.hpp"
#include "sim/fragment.hpp"
#include "sim/register_file.hpp"
#include "sim/resources.hpp"
#include "sim/shared_memory.hpp"
#include "sim/trace.hpp"
#include "types/decode_tables.hpp"
#include "types/matrix.hpp"
#include "verify/invariants.hpp"

namespace kami::sim {

/// Handles into the process-global obs::MetricRegistry for the warp's
/// hot-path counters, resolved by name once per block (ThreadBlock owns the
/// set and lends it to every warp) so an update is one add on a double.
/// Metric names are part of the observability contract documented in
/// README.md ("Observability").
struct WarpMetricHandles {
  obs::Counter& smem_bytes_written;
  obs::Counter& smem_bytes_read;
  obs::Counter& smem_conflicted_transfers;
  obs::Counter& smem_conflict_excess_cycles;
  obs::Counter& gmem_bytes_loaded;
  obs::Counter& gmem_bytes_stored;
  obs::Counter& reg_bytes_copied;
  obs::Counter& mma_instructions;
  obs::Counter& mma_flops;
  obs::Counter& vector_flops;
  obs::Counter& sync_wait_cycles;

  static WarpMetricHandles acquire() {
    auto& r = obs::MetricRegistry::current();
    return WarpMetricHandles{r.counter("sim.smem.bytes_written"),
                             r.counter("sim.smem.bytes_read"),
                             r.counter("sim.smem.conflicted_transfers"),
                             r.counter("sim.smem.conflict_excess_cycles"),
                             r.counter("sim.gmem.bytes_loaded"),
                             r.counter("sim.gmem.bytes_stored"),
                             r.counter("sim.reg.bytes_copied"),
                             r.counter("sim.mma.instructions"),
                             r.counter("sim.mma.flops"),
                             r.counter("sim.vector.flops"),
                             r.counter("sim.sync.wait_cycles")};
  }
};

/// Per-warp metric accumulator: ops bump plain (non-atomic) doubles and the
/// totals are published to the WarpMetricHandles atomics in one batch by
/// flush_metrics() — at block profiling and at warp destruction. A block
/// simulation is single-threaded, so nothing observes the counters mid-op;
/// batching removes eleven potential atomic RMWs from the per-op path.
struct PendingWarpMetrics {
  double smem_bytes_written = 0.0;
  double smem_bytes_read = 0.0;
  double smem_conflicted_transfers = 0.0;
  double smem_conflict_excess_cycles = 0.0;
  double gmem_bytes_loaded = 0.0;
  double gmem_bytes_stored = 0.0;
  double reg_bytes_copied = 0.0;
  double mma_instructions = 0.0;
  double mma_flops = 0.0;
  double vector_flops = 0.0;
  double sync_wait_cycles = 0.0;
};

class Warp {
 public:
  /// Every op charges cycles; `mode` only selects whether it also moves data
  /// (sim::mode_computes) and is fixed for the warp's life, so a fragment
  /// never outlives the mode it was allocated in. Shape checks and
  /// fragment/smem allocations stay active in every mode so feasibility
  /// errors are mode-independent. `metrics` is the owning block's handle set
  /// and must outlive the warp.
  Warp(int id, const DeviceSpec& dev, ExecMode mode, const WarpMetricHandles& metrics,
       SharedMemory& smem, UnitPool& tensor_cores, PortTimeline& gmem_port,
       PortTimeline& vector_pipe)
      : id_(id),
        dev_(&dev),
        smem_(&smem),
        tc_(&tensor_cores),
        gmem_port_(&gmem_port),
        vector_pipe_(&vector_pipe),
        regs_(dev.reg_bytes_per_warp(), mode),
        metrics_(metrics),
        numerics_(mode_computes(mode)) {}

  ~Warp() { flush_metrics(); }
  Warp(const Warp&) = delete;
  Warp& operator=(const Warp&) = delete;

  int id() const noexcept { return id_; }

  bool numerics_enabled() const noexcept { return numerics_; }

  /// Arm the cycle-budget watchdog: once this warp's clock passes `cycles`,
  /// the op that crossed it throws sim::DeadlineExceeded. 0 disarms. Clock
  /// advances are deterministic, so the abort point (and message) is too.
  void set_deadline(Cycles cycles) noexcept { deadline_ = cycles; }
  Cycles deadline() const noexcept { return deadline_; }

  Cycles clock() const noexcept { return clock_; }
  RegisterFile& regs() noexcept { return regs_; }
  const RegisterFile& regs() const noexcept { return regs_; }
  const CycleBreakdown& breakdown() const noexcept { return bd_; }
  const DeviceSpec& device() const noexcept { return *dev_; }

  /// Publish the batched per-warp counter totals into the registry handles.
  /// Idempotent; called by ThreadBlock profiling and by the destructor, and
  /// safe to call from const contexts (the pending block is a cache, not
  /// observable state).
  void flush_metrics() const {
    PendingWarpMetrics& p = pending_;
    if (p.smem_bytes_written != 0.0) metrics_.smem_bytes_written.add(p.smem_bytes_written);
    if (p.smem_bytes_read != 0.0) metrics_.smem_bytes_read.add(p.smem_bytes_read);
    if (p.smem_conflicted_transfers != 0.0)
      metrics_.smem_conflicted_transfers.add(p.smem_conflicted_transfers);
    if (p.smem_conflict_excess_cycles != 0.0)
      metrics_.smem_conflict_excess_cycles.add(p.smem_conflict_excess_cycles);
    if (p.gmem_bytes_loaded != 0.0) metrics_.gmem_bytes_loaded.add(p.gmem_bytes_loaded);
    if (p.gmem_bytes_stored != 0.0) metrics_.gmem_bytes_stored.add(p.gmem_bytes_stored);
    if (p.reg_bytes_copied != 0.0) metrics_.reg_bytes_copied.add(p.reg_bytes_copied);
    if (p.mma_instructions != 0.0) metrics_.mma_instructions.add(p.mma_instructions);
    if (p.mma_flops != 0.0) metrics_.mma_flops.add(p.mma_flops);
    if (p.vector_flops != 0.0) metrics_.vector_flops.add(p.vector_flops);
    if (p.sync_wait_cycles != 0.0) metrics_.sync_wait_cycles.add(p.sync_wait_cycles);
    p = PendingWarpMetrics{};
  }

  /// Allocate a fragment in this warp's register file.
  template <Scalar T>
  Fragment<T> alloc_fragment(std::size_t rows, std::size_t cols) {
    return Fragment<T>(regs_, rows, cols);
  }

  // -- shared memory ---------------------------------------------------------

  /// Reg2SMem: write a register tile into shared memory.
  template <Scalar T>
  void store_smem(const SmemTile<T>& dst, const FragView<T>& src, double theta_w = 1.0) {
    KAMI_REQUIRE(src.rows() == dst.rows && src.cols() == dst.cols,
                 "smem tile shape mismatch");
    if (numerics_) copy_view_to_smem(dst, src);
    const Cycles occ = smem_->transfer_occupancy(src.bytes(), theta_w) +
                       dev_->smem_transaction_overhead_cycles;
    const Cycles issue = clock_;
    const Cycles start = smem_->port().acquire(clock_, occ);
    advance(start + occ, bd_.smem_comm);
    pending_.smem_bytes_written += static_cast<double>(src.bytes());
    note_smem_conflict(src.bytes(), theta_w);
    record(OpKind::SmemStore, issue, start, static_cast<double>(src.bytes()));
  }

  /// SMem2Reg: read a shared-memory tile into registers.
  template <Scalar T>
  void load_smem(Fragment<T>& dst, const SmemTile<T>& src, double theta_r = 1.0) {
    KAMI_REQUIRE(dst.rows() == src.rows && dst.cols() == src.cols,
                 "smem tile shape mismatch");
    if (numerics_) smem_->read(src, dst.data(), dst.rows() * dst.cols());
    const Cycles occ = smem_->transfer_occupancy(dst.bytes(), theta_r) +
                       dev_->smem_transaction_overhead_cycles;
    const Cycles issue = clock_;
    const Cycles start = smem_->port().acquire(clock_, occ);
    advance(start + occ + smem_->latency(), bd_.smem_comm);
    pending_.smem_bytes_read += static_cast<double>(dst.bytes());
    note_smem_conflict(dst.bytes(), theta_r);
    record(OpKind::SmemLoad, issue, start, static_cast<double>(dst.bytes()));
  }

  // -- registers --------------------------------------------------------------

  /// Reg2Reg: intra-warp copy (the owner warp's BSend -> BRecv, §4.3).
  template <Scalar T>
  void copy_reg(Fragment<T>& dst, const FragView<T>& src) {
    KAMI_REQUIRE(dst.rows() == src.rows() && dst.cols() == src.cols());
    if (numerics_ && src.cols() > 0)
      // memmove: fragment rows are contiguous; source and destination may be
      // views of the same fragment.
      for (std::size_t r = 0; r < src.rows(); ++r)
        std::memmove(dst.row_data(r), src.row(r), src.cols() * sizeof(T));
    const Cycles issue = clock_;
    advance(clock_ + 1.0 + static_cast<double>(src.bytes()) / dev_->reg_bytes_per_cycle,
            bd_.reg_copy);
    pending_.reg_bytes_copied += static_cast<double>(src.bytes());
    record(OpKind::RegCopy, issue, issue, static_cast<double>(src.bytes()));
  }

  // -- compute ----------------------------------------------------------------

  /// Tensor-core MMA: C[cr0.., cc0..] += A x B, accumulated in AccT.
  template <Scalar T>
  void mma(Fragment<typename num_traits<T>::acc_t>& C, std::size_t cr0, std::size_t cc0,
           const FragView<T>& A, const FragView<T>& B) {
    mma_window(C, cr0, cc0, A, B, A.rows(), B.cols(), A.cols());
  }

  template <Scalar T>
  void mma(Fragment<typename num_traits<T>::acc_t>& C, const FragView<T>& A,
           const FragView<T>& B) {
    mma(C, 0, 0, A, B);
  }

  /// Tensor-core MMA on zero-padded operands (a fixed-tile kernel whose
  /// problem is smaller than its tile). The tensor core is charged for the
  /// full A x B, exactly as mma; the host multiplies only the valid window,
  /// rows x depth of A times depth x cols of B, into C[0..rows, 0..cols].
  /// Bit-identical to mma on the caller's stored region when the padding is
  /// +0 and C's padded rows and columns are never stored: padded k adds a
  /// trailing run of +0 products to an accumulator that starts at +0, so it
  /// is never -0 and adding +0 leaves it unchanged.
  template <Scalar T>
  void mma_padded(Fragment<typename num_traits<T>::acc_t>& C, const FragView<T>& A,
                  const FragView<T>& B, std::size_t rows, std::size_t cols,
                  std::size_t depth) {
    mma_window(C, 0, 0, A, B, rows, cols, depth);
  }

  /// Element-wise accumulate C += P (used by the 3D inter-layer reduction);
  /// runs on the vector pipe, not the tensor cores.
  template <Scalar T>
  void add_inplace(Fragment<T>& C, const FragView<T>& P) {
    KAMI_REQUIRE(C.rows() == P.rows() && C.cols() == P.cols());
    if (numerics_) add_rows(C, 0, 0, P);
    charge_vector_flops(static_cast<double>(C.rows() * C.cols()), num_traits<T>::precision);
  }

  /// Element-wise accumulate into a window of C: C[r0.., c0..] += P.
  /// Used by the 3D algorithm's chunked inter-layer reduction.
  template <Scalar T>
  void add_inplace_at(Fragment<T>& C, std::size_t r0, std::size_t c0,
                      const FragView<T>& P) {
    KAMI_REQUIRE(r0 + P.rows() <= C.rows() && c0 + P.cols() <= C.cols());
    if (numerics_) add_rows(C, r0, c0, P);
    charge_vector_flops(static_cast<double>(P.rows() * P.cols()), num_traits<T>::precision);
  }

  /// Scalar (non-tensor-core) FMA GEMM: C += A x B on the CUDA-core/XVE
  /// vector pipeline. Used by the SYCL-Bench-like baseline.
  template <Scalar T>
  void fma_scalar(Fragment<typename num_traits<T>::acc_t>& C, const FragView<T>& A,
                  const FragView<T>& B) {
    KAMI_REQUIRE(A.cols() == B.rows());
    KAMI_REQUIRE(A.rows() <= C.rows() && B.cols() <= C.cols());
    if (numerics_) mma_accumulate(C, 0, 0, A, B, A.rows(), B.cols(), A.cols());
    charge_vector_flops(2.0 * static_cast<double>(A.rows() * B.cols() * A.cols()),
                        num_traits<T>::precision);
  }

  // -- global memory ----------------------------------------------------------

  /// GMem2Reg: load a rows x cols window of `src` at (r0, c0).
  template <Scalar T>
  void load_global(Fragment<T>& dst, const Matrix<T>& src, std::size_t r0, std::size_t c0) {
    KAMI_REQUIRE(r0 + dst.rows() <= src.rows() && c0 + dst.cols() <= src.cols());
    if (numerics_ && dst.cols() > 0)
      for (std::size_t r = 0; r < dst.rows(); ++r)
        std::memcpy(dst.row_data(r), &src(r0 + r, c0), dst.cols() * sizeof(T));
    charge_gmem(dst.bytes(), OpKind::GmemLoad);
  }

  /// Reg2GMem: store a fragment into a window of `dst`.
  template <Scalar T>
  void store_global(Matrix<T>& dst, const FragView<T>& src, std::size_t r0, std::size_t c0) {
    KAMI_REQUIRE(r0 + src.rows() <= dst.rows() && c0 + src.cols() <= dst.cols());
    if (numerics_ && src.cols() > 0)
      for (std::size_t r = 0; r < src.rows(); ++r)
        std::memcpy(&dst(r0 + r, c0), src.row(r), src.cols() * sizeof(T));
    charge_gmem(src.bytes(), OpKind::GmemStore);
  }

  /// Store an accumulator fragment narrowed back to the storage precision.
  template <Scalar T>
  void store_global_narrowed(Matrix<T>& dst,
                             const Fragment<typename num_traits<T>::acc_t>& src,
                             std::size_t r0, std::size_t c0) {
    store_global_narrowed(dst, src, r0, c0, 0, 0, src.rows(), src.cols());
  }

  /// Sub-window variant: write src[sr0.., sc0..] (rows x cols) to dst at
  /// (r0, c0) — lets padded kernels store only the valid region without a
  /// second full-size staging fragment.
  template <Scalar T>
  void store_global_narrowed(Matrix<T>& dst,
                             const Fragment<typename num_traits<T>::acc_t>& src,
                             std::size_t r0, std::size_t c0, std::size_t sr0,
                             std::size_t sc0, std::size_t rows, std::size_t cols) {
    KAMI_REQUIRE(sr0 + rows <= src.rows() && sc0 + cols <= src.cols());
    KAMI_REQUIRE(r0 + rows <= dst.rows() && c0 + cols <= dst.cols());
    if (numerics_ && cols > 0)
      // Row-granular narrowing through the same encode path as NumericsOnly
      // writeback (per-element from_acc, TF32 via the vectorized rounder).
      for (std::size_t r = 0; r < rows; ++r)
        types::encode_span(src.row_data(sr0 + r) + sc0, &dst(r0 + r, c0), cols);
    charge_gmem(rows * cols * sizeof(T), OpKind::GmemStore);
  }

  /// Fixed ALU/control overhead on this warp (index matching, accumulator
  /// addressing in sparse kernels); accounted under compute.
  void charge_overhead(Cycles cycles) {
    KAMI_ASSERT(cycles >= 0.0);
    const Cycles issue = clock_;
    advance(clock_ + cycles, bd_.compute);
    record(OpKind::Overhead, issue, issue, cycles);
  }

  // -- explicit cost charging ---------------------------------------------------
  //
  // Block-level workloads in the paper keep data resident across in-kernel
  // iterations ("each looping 1000 times inside the CUDA kernel to ignore
  // global I/O costs", Fig 3); kernels model that by disabling gmem charging.

  void set_gmem_charging(bool on) noexcept { gmem_charging_ = on; }
  bool gmem_charging() const noexcept { return gmem_charging_; }

  /// Account global traffic without a data-moving op (used by setup paths
  /// that place data directly). Honors the gmem-charging flag.
  void charge_global_traffic(std::size_t bytes) { charge_gmem(bytes, OpKind::GmemLoad); }

  /// Account a global store without a destination matrix: exactly what
  /// store_global_narrowed charges, for a timing run that produces no C.
  /// Honors the gmem-charging flag.
  void charge_global_store(std::size_t bytes) { charge_gmem(bytes, OpKind::GmemStore); }

  /// Pipelined (cp.async-style) global traffic: occupies the memory port
  /// but hides the access latency behind the software pipeline, as
  /// multi-stage mainloops do. Honors the gmem-charging flag.
  void charge_global_traffic_async(std::size_t bytes) {
    if (!gmem_charging_) return;
    const Cycles occ = static_cast<double>(bytes) / dev_->gmem_bytes_per_cycle_per_sm;
    const Cycles start = gmem_port_->acquire(clock_, occ);
    advance(start + occ, bd_.gmem);
    pending_.gmem_bytes_loaded += static_cast<double>(bytes);
  }

  /// Account a shared-memory write without a fragment source.
  void charge_smem_write_traffic(std::size_t bytes, double theta_w = 1.0) {
    const Cycles occ = smem_->transfer_occupancy(bytes, theta_w) +
                       dev_->smem_transaction_overhead_cycles;
    const Cycles start = smem_->port().acquire(clock_, occ);
    advance(start + occ, bd_.smem_comm);
    pending_.smem_bytes_written += static_cast<double>(bytes);
    note_smem_conflict(bytes, theta_w);
  }

  /// Account a shared-memory read (latency + occupancy) without a typed
  /// tile — used by baseline kernels whose strided smem views the tile
  /// abstraction does not model.
  void charge_smem_read_traffic(std::size_t bytes, double theta_r = 1.0) {
    const Cycles occ = smem_->transfer_occupancy(bytes, theta_r) +
                       dev_->smem_transaction_overhead_cycles;
    const Cycles start = smem_->port().acquire(clock_, occ);
    advance(start + occ + smem_->latency(), bd_.smem_comm);
    pending_.smem_bytes_read += static_cast<double>(bytes);
    note_smem_conflict(bytes, theta_r);
  }

  // -- used by ThreadBlock ------------------------------------------------------

  void wait_until(Cycles t) {
    if (t > clock_) {
      const Cycles issue = clock_;
      bd_.sync_wait += t - clock_;
      clock_ = t;
      pending_.sync_wait_cycles += t - issue;
      record(OpKind::SyncWait, issue, issue, t - issue);
      check_deadline();
    }
  }
  void reset_clock() noexcept {
    clock_ = 0.0;
    bd_ = CycleBreakdown{};
  }

  /// Attach an event recorder (nullptr disables tracing).
  void set_trace(Trace* trace) noexcept { trace_ = trace; }

 private:
  void advance(Cycles end, Cycles& bucket) {
    end = KAMI_FAULT_SKEW(warp_advance_skew, end);
    KAMI_INVARIANT(end >= clock_, "warp clock must advance monotonically");
    bucket += end - clock_;
    clock_ = end;
    check_deadline();
  }

  void check_deadline() const {
    if (deadline_ > 0.0 && clock_ > deadline_) [[unlikely]] {
      throw DeadlineExceeded("simulated-cycle deadline exceeded: warp " +
                             std::to_string(id_) + " reached cycle " +
                             std::to_string(clock_) + " with a budget of " +
                             std::to_string(deadline_) + " cycles");
    }
  }

  void record(OpKind kind, Cycles issue, Cycles start, double amount) {
    if (trace_ == nullptr) return;
    trace_->record(TraceEvent{id_, kind, issue, start, clock_, amount});
  }

  void charge_mma(Precision p, std::size_t fm, std::size_t fn, std::size_t fk) {
    const MmaShape s = dev_->mma_shape(p);
    const auto ceil_div = [](std::size_t a, std::size_t b) { return (a + b - 1) / b; };
    const double instrs = static_cast<double>(ceil_div(fm, static_cast<std::size_t>(s.m)) *
                                              ceil_div(fn, static_cast<std::size_t>(s.n)) *
                                              ceil_div(fk, static_cast<std::size_t>(s.k)));
    const double issued_flops = instrs * 2.0 * s.m * s.n * s.k;
    const double ideal = issued_flops / dev_->ops_per_cycle_per_tc(p);
    const Cycles issue = clock_;
    const Cycles start = tc_->acquire(clock_, ideal);
    advance(start + ideal / dev_->mma_efficiency, bd_.compute);
    pending_.mma_instructions += instrs;
    pending_.mma_flops += issued_flops;
    record(OpKind::Mma, issue, start, issued_flops);
  }

  void charge_vector_flops(double flops, Precision p = Precision::FP32) {
    // The vector pipe is one shared timeline at the per-SM aggregate rate.
    const double rate = dev_->vector_flops_per_cycle(p);
    KAMI_REQUIRE(rate > 0.0, "device has no vector pipe for this precision");
    const Cycles occ = flops / rate;
    const Cycles issue = clock_;
    const Cycles start = vector_pipe_->acquire(clock_, occ);
    advance(start + occ, bd_.compute);
    pending_.vector_flops += flops;
    record(OpKind::VectorOp, issue, start, flops);
  }

  void charge_gmem(std::size_t bytes, OpKind kind) {
    if (!gmem_charging_) return;
    const Cycles occ = static_cast<double>(bytes) / dev_->gmem_bytes_per_cycle_per_sm;
    const Cycles issue = clock_;
    const Cycles start = gmem_port_->acquire(clock_, occ);
    advance(start + occ + dev_->gmem_latency_cycles, bd_.gmem);
    (kind == OpKind::GmemStore ? pending_.gmem_bytes_stored : pending_.gmem_bytes_loaded) +=
        static_cast<double>(bytes);
    record(kind, issue, start, static_cast<double>(bytes));
  }

  /// Publish the cost of a conflicted shared-memory transfer: the extra
  /// port cycles relative to the same transfer at theta = 1.
  void note_smem_conflict(std::size_t bytes, double theta) {
    if (theta >= 1.0) return;
    pending_.smem_conflicted_transfers += 1.0;
    pending_.smem_conflict_excess_cycles += smem_->transfer_occupancy(bytes, theta) -
                                            smem_->transfer_occupancy(bytes, 1.0);
  }

  /// Row-granular fragment -> smem copy; no staging buffer (the seed version
  /// linearized the view into a per-call std::vector).
  template <Scalar T>
  void copy_view_to_smem(const SmemTile<T>& dst, const FragView<T>& src) {
    if (src.cols() == 0) return;
    for (std::size_t r = 0; r < src.rows(); ++r)
      smem_->write_row(dst, r, src.row(r), src.cols());
  }

  /// The one MMA body behind mma and mma_padded: the host multiplies the
  /// rows x depth by depth x cols window of the operands into C[cr0.., cc0..]
  /// and the tensor core is charged for the full fragments.
  template <Scalar T>
  void mma_window(Fragment<typename num_traits<T>::acc_t>& C, std::size_t cr0,
                  std::size_t cc0, const FragView<T>& A, const FragView<T>& B,
                  std::size_t rows, std::size_t cols, std::size_t depth) {
    KAMI_REQUIRE(A.cols() == B.rows(), "mma inner dimensions must agree");
    KAMI_REQUIRE(cr0 + A.rows() <= C.rows() && cc0 + B.cols() <= C.cols());
    KAMI_REQUIRE(rows <= A.rows() && cols <= B.cols() && depth <= A.cols(),
                 "mma window must lie inside the fragments");
    if (numerics_) mma_accumulate(C, cr0, cc0, A, B, rows, cols, depth);
    charge_mma(num_traits<T>::precision, A.rows(), B.cols(), A.cols());
  }

  /// Shared numerics for mma, mma_padded and fma_scalar: C[cr0.., cc0..] +=
  /// A[0..rows, 0..depth] x B[0..depth, 0..cols] with one ascending-k
  /// sequential chain per output element in accumulator precision, through
  /// gemm_accumulate — the exact kernel the NumericsOnly path runs — at the
  /// fragments' row strides. Identity codecs (fp32/fp64 accumulate in
  /// themselves) multiply the fragment rows in place, as numeric_gemm_into
  /// does; narrower types decode the window's operand rows through the LUT
  /// spans into arena scratch once, hoisting the num_traits conversions out
  /// of the O(m*n*k) loop. Bit-identical to the scalar seed triple loop by
  /// the argument in core/vector_kernels.hpp.
  template <Scalar T>
  void mma_accumulate(Fragment<typename num_traits<T>::acc_t>& C, std::size_t cr0,
                      std::size_t cc0, const FragView<T>& A, const FragView<T>& B,
                      std::size_t rows, std::size_t cols, std::size_t depth) {
    using Acc = typename num_traits<T>::acc_t;
    if (rows == 0 || cols == 0 || depth == 0) return;
    Acc* c = C.row_data(cr0) + cc0;
    if constexpr (std::is_same_v<T, Acc>) {
      const std::size_t lda = A.row_stride(), ldb = B.row_stride();
      KAMI_REQUIRE(!core::detail::spans_overlap(C.data(), C.rows() * C.cols(), A.row(0),
                                                (rows - 1) * lda + depth) &&
                       !core::detail::spans_overlap(C.data(), C.rows() * C.cols(),
                                                    B.row(0), (depth - 1) * ldb + cols),
                   "mma: C must not overlap A or B");
      core::detail::gemm_accumulate(c, C.cols(), A.row(0), lda, B.row(0), ldb, rows, cols,
                                    depth);
    } else {
      core::Arena& arena = core::Arena::tls();
      core::ArenaScope scope(arena);
      Acc* Af = arena.alloc<Acc>(rows * depth);
      Acc* Bf = arena.alloc<Acc>(depth * cols);
      for (std::size_t r = 0; r < rows; ++r)
        types::decode_span(A.row(r), Af + r * depth, depth);
      for (std::size_t r = 0; r < depth; ++r) types::decode_span(B.row(r), Bf + r * cols, cols);
      core::detail::gemm_accumulate(c, C.cols(), Af, depth, Bf, cols, rows, cols, depth);
    }
  }

  /// Shared numerics for add_inplace/add_inplace_at: C[r0.., c0..] += P,
  /// element-wise in accumulator precision with one narrowing per element —
  /// the same from_acc(to_acc(c) + to_acc(p)) value the seed loop produced.
  /// Identity-codec types (fp32/fp64 accumulate in themselves) skip the
  /// decode/encode round-trip and add in place.
  template <Scalar T>
  void add_rows(Fragment<T>& C, std::size_t r0, std::size_t c0, const FragView<T>& P) {
    using Acc = typename num_traits<T>::acc_t;
    const std::size_t rows = P.rows(), cols = P.cols();
    if (rows == 0 || cols == 0) return;
    if constexpr (std::is_same_v<T, Acc>) {
      for (std::size_t r = 0; r < rows; ++r)
        core::detail::add_span(C.row_data(r0 + r) + c0, P.row(r), cols);
    } else {
      core::Arena& arena = core::Arena::tls();
      core::ArenaScope scope(arena);
      Acc* ca = arena.alloc<Acc>(cols);
      Acc* pa = arena.alloc<Acc>(cols);
      for (std::size_t r = 0; r < rows; ++r) {
        T* crow = C.row_data(r0 + r) + c0;
        types::decode_span(crow, ca, cols);
        types::decode_span(P.row(r), pa, cols);
        core::detail::add_span(ca, pa, cols);
        types::encode_span(ca, crow, cols);
      }
    }
  }

  int id_;
  const DeviceSpec* dev_;
  SharedMemory* smem_;
  UnitPool* tc_;
  PortTimeline* gmem_port_;
  PortTimeline* vector_pipe_;
  RegisterFile regs_;
  const WarpMetricHandles& metrics_;
  mutable PendingWarpMetrics pending_;
  Cycles clock_ = 0.0;
  Cycles deadline_ = 0.0;  ///< 0 = no cycle budget
  CycleBreakdown bd_;
  const bool numerics_;
  bool gmem_charging_ = true;
  Trace* trace_ = nullptr;
};

}  // namespace kami::sim
