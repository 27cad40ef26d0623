// KAMI public API.
//
//   #include "core/kami.hpp"
//
//   auto& dev = kami::sim::gh200();
//   kami::Matrix<kami::fp16_t> A = ..., B = ...;
//   auto r = kami::gemm(kami::Algo::OneD, dev, A, B);
//   // r.C is the product; r.profile carries cycles & resource occupancy.
//
// The three block-level algorithms (Section 4.3-4.5), runtime-dispatched.
// Batched and low-rank drivers live in core/batched.hpp and core/lowrank.hpp;
// sparse kernels in sparse/.
//
// A call plans, then runs up to two things, in this order:
//   * one TimingOnly simulation of the plan from the shape alone
//     (core/kami_1d.hpp, kami_2d.hpp, kami_3d.hpp) for the profile, the
//     trace and the phases, and for every error a block raises:
//     infeasibility, deadline aborts, injected faults;
//   * the host kernel (core/numeric_path.hpp) for C, in the plan's
//     association (numeric_layers).
// Full runs both, TimingOnly the first (C stays zero-filled) and
// NumericsOnly the second. The element data plane, a block that moves A and
// B through fragments and shared memory and narrows C out of them, is the
// verifier's (verify::data_plane_gemm), which checks point by point that it
// equals this composition in profile and bits.
#pragma once

#include <optional>
#include <string>

#include "core/gemm.hpp"
#include "core/kami_1d.hpp"
#include "core/kami_2d.hpp"
#include "core/kami_3d.hpp"
#include "core/numeric_path.hpp"
#include "core/phase_scope.hpp"
#include "model/cost_model.hpp"
#include "sim/block.hpp"

namespace kami {

using core::Algo;
using core::GemmOptions;
using core::GemmResult;

namespace core {

/// The k-layers of a plan's association: KAMI-3D reduces its cbrt(warps)
/// layers in order, 1D and 2D run one ascending-k chain. It needs only the
/// warp count, so a cached profile answers it too.
inline std::size_t numeric_layers(Algo algo, int warps) {
  return algo == Algo::ThreeD ? static_cast<std::size_t>(warp_grid(algo, warps)) : 1;
}

namespace detail {

/// The root span of a KAMI kernel's phase trace (GemmOptions::record_regions).
inline const char* phase_root(Algo algo) {
  switch (algo) {
    case Algo::OneD: return "kami_1d";
    case Algo::TwoD: return "kami_2d";
    case Algo::ThreeD: return "kami_3d";
  }
  throw PreconditionError("unknown algorithm in plan");
}

/// Simulate `plan` for an m x n x k product on a fresh block. Without
/// operands the block is TimingOnly: it times the schedule from the shape
/// alone and the result's C is empty. With A and B (verify::data_plane_gemm)
/// it is the element data plane, which moves their elements and narrows C
/// out. Profile and phases are the same either way. This is the one
/// place that decides whether a run moves data; the kernels only forward
/// the nullable A, B and C.
template <Scalar T>
GemmResult<T> simulate(const sim::DeviceSpec& dev, const Plan& plan, std::size_t m,
                       std::size_t n, std::size_t k, const GemmOptions& opt,
                       const Matrix<T>* A = nullptr, const Matrix<T>* B = nullptr) {
  const bool moves_data = A != nullptr;
  KAMI_REQUIRE(moves_data ? B != nullptr && A->rows() == m && A->cols() == k &&
                                B->rows() == k && B->cols() == n
                          : B == nullptr,
               "a data-plane run needs both operands, in the simulated shape");
  const char* const root = phase_root(plan.algo);
  sim::ThreadBlock blk(dev, plan.p,
                       moves_data ? sim::ExecMode::Full : sim::ExecMode::TimingOnly);
  blk.set_deadline(opt.deadline_cycles);

  // Optional phase trace on the block's simulated clock (core/phase_scope.hpp).
  std::optional<obs::TraceBuilder> phases;
  if (opt.record_regions) phases.emplace(root, root, blk.cycles());
  obs::TraceBuilder* const ph = phases ? &*phases : nullptr;

  GemmResult<T> out{moves_data ? Matrix<T>(m, n) : Matrix<T>(), {}, plan.p,
                    plan.smem_ratio, nullptr};
  Matrix<T>* const C = moves_data ? &out.C : nullptr;
  switch (plan.algo) {
    case Algo::OneD: simulate_1d(blk, ph, plan, m, n, k, opt, A, B, C); break;
    case Algo::TwoD: simulate_2d(blk, ph, plan, m, n, k, opt, A, B, C); break;
    case Algo::ThreeD: simulate_3d(blk, ph, plan, m, n, k, opt, A, B, C); break;
  }
  out.profile = sim::profile_block(blk, model::gemm_flops(m, n, k));
  out.regions = finish_phases(ph, blk);
  return out;
}

}  // namespace detail
}  // namespace core

/// Block-level C = A x B with the selected CA algorithm.
template <Scalar T>
GemmResult<T> gemm(Algo algo, const sim::DeviceSpec& dev, const Matrix<T>& A,
                   const Matrix<T>& B, const GemmOptions& opt = {}) {
  if (algo != Algo::OneD && algo != Algo::TwoD && algo != Algo::ThreeD)
    throw PreconditionError("unknown algorithm: " + std::to_string(static_cast<int>(algo)) +
                            " is not one of Algo::OneD(0)/TwoD(1)/ThreeD(2)");
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();
  KAMI_REQUIRE(B.rows() == k, "inner dimensions must agree");
  const core::Plan plan = core::plan_gemm(algo, dev, num_traits<T>::precision, m, n, k, opt);
  GemmResult<T> out{{}, {}, plan.p, plan.smem_ratio, nullptr};
  if (opt.mode != sim::ExecMode::NumericsOnly)
    out = core::detail::simulate<T>(dev, plan, m, n, k, opt);
  out.C = opt.mode == sim::ExecMode::TimingOnly
              ? Matrix<T>(m, n)
              : core::numeric_gemm(A, B, core::numeric_layers(algo, plan.p));
  return out;
}

const char* algo_name(Algo algo) noexcept;

}  // namespace kami
