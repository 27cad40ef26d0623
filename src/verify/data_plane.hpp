// The element data plane of the KAMI kernels, reachable only from here.
//
// kami::gemm in Full is a TimingOnly simulation for the profile plus the host
// kernel for C (core/kami.hpp). data_plane_gemm instead runs the plan on a
// block that moves real elements: A and B into fragments and shared-memory
// spills, every broadcast through the shared-memory bytes, every MMA on the
// fragments, C narrowed out of the accumulators. The differential harness
// (verify/differential.hpp), the tests and sim_microbench compare it with the
// front door, so a schedule that moves the wrong data fails by name even
// though no served result runs it.
#pragma once

#include "core/kami.hpp"

namespace kami::verify {

/// C = A x B with KAMI-`algo` on a data-moving simulated block. Plans as
/// kami::gemm does; `opt.mode` is ignored. Profile, trace and phases equal
/// the front door's, and C equals its Full C bit for bit when the schedule
/// is right.
template <Scalar T>
core::GemmResult<T> data_plane_gemm(core::Algo algo, const sim::DeviceSpec& dev,
                                    const Matrix<T>& A, const Matrix<T>& B,
                                    const core::GemmOptions& opt = {}) {
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();
  KAMI_REQUIRE(B.rows() == k, "inner dimensions must agree");
  const core::Plan plan = core::plan_gemm(algo, dev, num_traits<T>::precision, m, n, k, opt);
  return core::detail::simulate<T>(dev, plan, m, n, k, opt, &A, &B);
}

}  // namespace kami::verify
