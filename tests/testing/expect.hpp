// Shared gtest assertions for bit-exact results and cycle profiles.
#pragma once

#include <gtest/gtest.h>

#include <cstring>

#include "sim/throughput.hpp"
#include "types/matrix.hpp"

namespace kami::testing {

/// Element bit patterns equal: -0 vs +0 and NaN payloads count as
/// differences, which a value comparison (max_abs_diff == 0) would miss.
template <Scalar T>
::testing::AssertionResult bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    return ::testing::AssertionFailure() << "shape mismatch";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(T)) != 0)
      return ::testing::AssertionFailure()
             << "element (" << i / a.cols() << ", " << i % a.cols() << ") bit patterns differ";
  return ::testing::AssertionSuccess();
}

/// Every field of two cycle profiles equal, breakdown included.
inline void expect_profile_identical(const sim::KernelProfile& a,
                                     const sim::KernelProfile& b) {
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.tc_busy, b.tc_busy);
  EXPECT_EQ(a.smem_busy, b.smem_busy);
  EXPECT_EQ(a.gmem_busy, b.gmem_busy);
  EXPECT_EQ(a.vector_busy, b.vector_busy);
  EXPECT_EQ(a.useful_flops, b.useful_flops);
  EXPECT_EQ(a.reg_bytes_per_warp, b.reg_bytes_per_warp);
  EXPECT_EQ(a.smem_bytes, b.smem_bytes);
  EXPECT_EQ(a.num_warps, b.num_warps);
  EXPECT_EQ(a.mean_breakdown.smem_comm, b.mean_breakdown.smem_comm);
  EXPECT_EQ(a.mean_breakdown.gmem, b.mean_breakdown.gmem);
  EXPECT_EQ(a.mean_breakdown.reg_copy, b.mean_breakdown.reg_copy);
  EXPECT_EQ(a.mean_breakdown.compute, b.mean_breakdown.compute);
  EXPECT_EQ(a.mean_breakdown.sync_wait, b.mean_breakdown.sync_wait);
}

}  // namespace kami::testing
