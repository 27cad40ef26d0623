#include "core/sliced_operand.hpp"

#include <gtest/gtest.h>

#include "../testing/test_device.hpp"

namespace kami::core {
namespace {

using kami::testing::tiny_device;

TEST(SliceWidth, PrefersSixteenAndDividesChunk) {
  EXPECT_EQ(pick_slice_width(64), 16u);
  EXPECT_EQ(pick_slice_width(48), 16u);
  EXPECT_EQ(pick_slice_width(24), 12u);  // largest divisor <= 16
  EXPECT_EQ(pick_slice_width(8), 8u);    // chunk smaller than preference
  EXPECT_EQ(pick_slice_width(7), 7u);
}

TEST(SliceLayout, NoSpillAtRatioZero) {
  const auto lay = SliceLayout::make(32, 64, SliceAxis::Cols, 16, 0, 0.0);
  EXPECT_EQ(lay.n_slices, 4u);
  EXPECT_EQ(lay.resident_slices_total(), 4u);
  EXPECT_EQ(lay.spilled_slices_total(), 0u);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_TRUE(lay.is_resident(s));
}

TEST(SliceLayout, HalfRatioSpillsTrailingSlicesPerChunk) {
  // 8 slices in chunks of 4: ratio 0.5 spills the last 2 of each chunk.
  const auto lay = SliceLayout::make(32, 128, SliceAxis::Cols, 16, 4, 0.5);
  EXPECT_EQ(lay.n_slices, 8u);
  EXPECT_EQ(lay.resident_per_chunk, 2u);
  EXPECT_TRUE(lay.is_resident(0));
  EXPECT_TRUE(lay.is_resident(1));
  EXPECT_FALSE(lay.is_resident(2));
  EXPECT_FALSE(lay.is_resident(3));
  EXPECT_TRUE(lay.is_resident(4));
  EXPECT_FALSE(lay.is_resident(7));
  EXPECT_EQ(lay.resident_slices_total(), 4u);
}

TEST(SliceLayout, ResidentIndexPacksAcrossChunks) {
  const auto lay = SliceLayout::make(32, 128, SliceAxis::Cols, 16, 4, 0.5);
  EXPECT_EQ(lay.resident_index(0), 0u);
  EXPECT_EQ(lay.resident_index(1), 1u);
  EXPECT_EQ(lay.resident_index(4), 2u);  // first slice of chunk 1
  EXPECT_EQ(lay.resident_index(5), 3u);
}

TEST(SliceLayout, AtLeastOneResidentSlicePerChunk) {
  const auto lay = SliceLayout::make(32, 64, SliceAxis::Cols, 16, 4, 0.99);
  EXPECT_EQ(lay.resident_per_chunk, 1u);
}

TEST(SliceLayout, ByteAccounting) {
  const auto lay = SliceLayout::make(32, 64, SliceAxis::Cols, 16, 0, 0.5);
  // 4 slices of 32x16: 2 resident, 2 spilled.
  EXPECT_EQ(lay.reg_bytes(2), 2u * 32u * 16u * 2u);
  EXPECT_EQ(lay.smem_bytes(2), 2u * 32u * 16u * 2u);
}

TEST(SliceLayout, RowAxisSlicesRows) {
  const auto lay = SliceLayout::make(64, 32, SliceAxis::Rows, 16, 0, 0.0);
  EXPECT_EQ(lay.n_slices, 4u);
  EXPECT_EQ(lay.slice_rows(), 16u);
  EXPECT_EQ(lay.slice_cols(), 32u);
}

TEST(SliceLayout, RejectsNonDividingWidth) {
  EXPECT_THROW((void)SliceLayout::make(32, 60, SliceAxis::Cols, 16, 0, 0.0),
               PreconditionError);
}

TEST(SlicedOperand, ResidentSlicesServeCorrectData) {
  const auto dev = tiny_device();
  sim::ThreadBlock blk(dev, 1);
  Rng rng(5);
  const auto src = random_matrix<float>(32, 64, rng);
  blk.phase([&](sim::Warp& w) {
    const auto lay = SliceLayout::make(32, 64, SliceAxis::Cols, 16, 0, 0.0);
    SlicedOperand<float> op(w, blk.smem(), lay, &src, 0, 0);
    for (std::size_t s = 0; s < lay.n_slices; ++s) {
      auto v = op.resident_slice(s);
      for (std::size_t r = 0; r < v.rows(); ++r)
        for (std::size_t c = 0; c < v.cols(); ++c)
          EXPECT_FLOAT_EQ(v(r, c), src(r, s * 16 + c));
    }
  });
}

TEST(SlicedOperand, SpilledSlicesRoundTripThroughSmem) {
  const auto dev = tiny_device();
  sim::ThreadBlock blk(dev, 1);
  Rng rng(6);
  const auto src = random_matrix<float>(32, 64, rng);
  blk.phase([&](sim::Warp& w) {
    const auto lay = SliceLayout::make(32, 64, SliceAxis::Cols, 16, 0, 0.5);
    SlicedOperand<float> op(w, blk.smem(), lay, &src, 0, 0);
    auto scratch = w.alloc_fragment<float>(32, 16);
    op.fetch_slice(w, 3, scratch);  // slice 3 is spilled
    for (std::size_t r = 0; r < 32; ++r)
      for (std::size_t c = 0; c < 16; ++c)
        EXPECT_FLOAT_EQ(scratch(r, c), src(r, 48 + c));
  });
}

TEST(SlicedOperand, FetchingSpilledSliceCostsSmemRead) {
  const auto dev = tiny_device();
  sim::ThreadBlock blk(dev, 1);
  Rng rng(7);
  const auto src = random_matrix<float>(32, 64, rng);
  blk.phase([&](sim::Warp& w) {
    const auto lay = SliceLayout::make(32, 64, SliceAxis::Cols, 16, 0, 0.5);
    SlicedOperand<float> op(w, blk.smem(), lay, &src, 0, 0);
    auto scratch = w.alloc_fragment<float>(32, 16);
    const auto before = w.breakdown().smem_comm;
    op.fetch_slice(w, 0, scratch);  // resident: register copy only
    EXPECT_DOUBLE_EQ(w.breakdown().smem_comm, before);
    op.fetch_slice(w, 2, scratch);  // spilled: charged shared-memory read
    EXPECT_GT(w.breakdown().smem_comm, before);
  });
}

TEST(SlicedOperand, WindowOffsetsAddressSubmatrices) {
  const auto dev = tiny_device();
  sim::ThreadBlock blk(dev, 1);
  Rng rng(8);
  const auto src = random_matrix<float>(64, 64, rng);
  blk.phase([&](sim::Warp& w) {
    const auto lay = SliceLayout::make(16, 32, SliceAxis::Cols, 16, 0, 0.0);
    SlicedOperand<float> op(w, blk.smem(), lay, &src, 16, 32);  // window at (16,32)
    auto v = op.resident_slice(1);
    EXPECT_FLOAT_EQ(v(0, 0), src(16, 48));
  });
}

}  // namespace
}  // namespace kami::core
