#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "sim/block.hpp"
#include "sim/device.hpp"
#include "sim/fragment.hpp"
#include "sim/register_file.hpp"
#include "sim/shared_memory.hpp"

namespace kami::sim {
namespace {

// ---------------------------------------------------------------------------
// SharedMemory
// ---------------------------------------------------------------------------

TEST(SharedMemory, AllocWithinCapacity) {
  SharedMemory sm(1024, 128.0, 22.0, ExecMode::Full);
  auto t = sm.alloc<double>(8, 8);  // 512 B
  EXPECT_EQ(t.bytes(), 512u);
  EXPECT_GE(sm.bytes_allocated(), 512u);
}

TEST(SharedMemory, OverflowThrows) {
  SharedMemory sm(1024, 128.0, 22.0, ExecMode::Full);
  (void)sm.alloc<double>(8, 8);
  EXPECT_THROW((void)sm.alloc<double>(10, 10), SharedMemoryOverflow);
}

TEST(SharedMemory, ResetAllowsReuseAndKeepsHighWater) {
  SharedMemory sm(1024, 128.0, 22.0, ExecMode::Full);
  (void)sm.alloc<double>(8, 8);
  sm.reset_allocations();
  EXPECT_EQ(sm.bytes_allocated(), 0u);
  (void)sm.alloc<double>(8, 8);
  EXPECT_GE(sm.high_water_bytes(), 512u);
}

TEST(SharedMemory, DataRoundTrip) {
  SharedMemory sm(1024, 128.0, 22.0, ExecMode::Full);
  auto t = sm.alloc<float>(2, 3);
  const float src[6] = {1, 2, 3, 4, 5, 6};
  sm.write(t, src, 6);
  float dst[6] = {};
  sm.read(t, dst, 6);
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(dst[i], src[i]);
}

TEST(SharedMemory, UnwrittenRegionReadsZero) {
  SharedMemory sm(1024, 128.0, 22.0, ExecMode::Full);
  auto t = sm.alloc<float>(1, 4);
  float dst[4] = {9, 9, 9, 9};
  sm.read(t, dst, 4);
  for (float v : dst) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(SharedMemory, TransferOccupancyFollowsBandwidthAndTheta) {
  SharedMemory sm(1024, 128.0, 22.0, ExecMode::Full);
  EXPECT_DOUBLE_EQ(sm.transfer_occupancy(256, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(sm.transfer_occupancy(256, 0.5), 4.0);  // conflicts halve B_sm
}

TEST(SharedMemory, RejectsInvalidTheta) {
  SharedMemory sm(1024, 128.0, 22.0, ExecMode::Full);
  EXPECT_THROW((void)sm.transfer_occupancy(1, 0.0), kami::PreconditionError);
  EXPECT_THROW((void)sm.transfer_occupancy(1, 1.5), kami::PreconditionError);
}

/// Allocate odd-sized tiles until `sm` overflows; returns how many fit and
/// the overflow's message.
std::pair<int, std::string> exhaust(SharedMemory& sm) {
  for (int allocs = 0;; ++allocs) {
    try {
      (void)sm.alloc<float>(33, 17);  // 2244 B, so the 16 B alignment pads
    } catch (const SharedMemoryOverflow& e) {
      return {allocs, e.what()};
    }
  }
}

// A TimingOnly block's shared memory is capacity accounting only: the same
// capacity, the same overflow at the same allocation with the same message,
// the same high-water — and no bytes behind it.
TEST(SharedMemory, TimingOnlyBlockAccountsCapacityWithoutBytes) {
  const DeviceSpec& dev = gh200();
  ThreadBlock full(dev, 4, ExecMode::Full);
  ThreadBlock timing(dev, 4, ExecMode::TimingOnly);
  EXPECT_EQ(timing.smem().capacity(), dev.smem_bytes_per_block);
  EXPECT_EQ(timing.smem().capacity(), full.smem().capacity());
  EXPECT_TRUE(full.smem().holds_bytes());
  EXPECT_FALSE(timing.smem().holds_bytes());

  const auto [full_allocs, full_what] = exhaust(full.smem());
  const auto [timing_allocs, timing_what] = exhaust(timing.smem());
  EXPECT_GT(full_allocs, 0);
  EXPECT_EQ(timing_allocs, full_allocs);
  EXPECT_EQ(timing_what, full_what);
  EXPECT_EQ(timing.smem().high_water_bytes(), full.smem().high_water_bytes());

#ifndef NDEBUG
  timing.smem().reset_allocations();
  const auto tile = timing.smem().alloc<float>(1, 4);
  float buf[4] = {};
  EXPECT_THROW(timing.smem().read(tile, buf, 4), kami::PreconditionError);
  EXPECT_THROW(timing.smem().write(tile, buf, 4), kami::PreconditionError);
  EXPECT_THROW(timing.smem().write_row(tile, 0, buf, 4), kami::PreconditionError);
#endif
}

// ---------------------------------------------------------------------------
// RegisterFile
// ---------------------------------------------------------------------------

TEST(RegisterFile, AllocateReleaseCycle) {
  RegisterFile rf(100, ExecMode::Full);
  rf.allocate(60);
  EXPECT_EQ(rf.used(), 60u);
  rf.release(60);
  EXPECT_EQ(rf.used(), 0u);
  EXPECT_EQ(rf.high_water(), 60u);
}

TEST(RegisterFile, OverflowThrowsWithoutCorruptingState) {
  RegisterFile rf(100, ExecMode::Full);
  rf.allocate(80);
  EXPECT_THROW(rf.allocate(30), RegisterOverflow);
  EXPECT_EQ(rf.used(), 80u);  // failed allocation does not leak
}

TEST(RegisterFile, HighWaterAsRegsPerThread) {
  RegisterFile rf(255 * 4 * 32, ExecMode::Full);
  rf.allocate(4 * 32 * 10);  // 10 registers per thread worth
  EXPECT_DOUBLE_EQ(rf.high_water_regs_per_thread(32), 10.0);
}

// ---------------------------------------------------------------------------
// Fragment
// ---------------------------------------------------------------------------

TEST(Fragment, AllocatesAndReleasesRegisters) {
  RegisterFile rf(4096, ExecMode::Full);
  {
    Fragment<float> f(rf, 8, 8);
    EXPECT_EQ(rf.used(), 256u);
    f(3, 4) = 1.5f;
    EXPECT_FLOAT_EQ(f(3, 4), 1.5f);
  }
  EXPECT_EQ(rf.used(), 0u);
}

TEST(Fragment, OverflowPropagates) {
  RegisterFile rf(100, ExecMode::Full);
  EXPECT_THROW(Fragment<double> f(rf, 8, 8), RegisterOverflow);
}

TEST(Fragment, MoveTransfersOwnership) {
  RegisterFile rf(4096, ExecMode::Full);
  Fragment<float> a(rf, 4, 4);
  a(0, 0) = 2.0f;
  Fragment<float> b(std::move(a));
  EXPECT_FLOAT_EQ(b(0, 0), 2.0f);
  EXPECT_EQ(rf.used(), 64u);  // exactly one live allocation
}

TEST(Fragment, ViewWindowsAreBoundsChecked) {
  RegisterFile rf(4096, ExecMode::Full);
  Fragment<float> f(rf, 4, 8);
  auto v = f.view(1, 2, 2, 3);
  f(1, 2) = 9.0f;
  EXPECT_FLOAT_EQ(v(0, 0), 9.0f);
  EXPECT_THROW((void)f.view(3, 0, 2, 8), kami::PreconditionError);
}

/// The message of the RegisterOverflow a fragment larger than the whole
/// register file throws.
std::string overflow_message(Warp& w) {
  try {
    (void)w.alloc_fragment<double>(w.regs().capacity() / sizeof(double) + 1, 1);
  } catch (const RegisterOverflow& e) {
    return e.what();
  }
  return "no overflow";
}

// A fragment allocated by a TimingOnly warp charges exactly what the Full
// one charges — bytes in use, high-water, the overflow and its message — and
// holds no elements.
TEST(Fragment, TimingOnlyWarpChargesRegistersWithoutElements) {
  const DeviceSpec& dev = gh200();
  ThreadBlock full(dev, 1, ExecMode::Full);
  ThreadBlock timing(dev, 1, ExecMode::TimingOnly);
  Warp& wf = full.warp(0);
  Warp& wt = timing.warp(0);
  EXPECT_TRUE(wf.regs().holds_elements());
  EXPECT_FALSE(wt.regs().holds_elements());
  {
    const auto ff = wf.alloc_fragment<double>(16, 24);
    const auto ft = wt.alloc_fragment<double>(16, 24);
    EXPECT_TRUE(ff.holds_elements());
    EXPECT_FALSE(ft.holds_elements());
    EXPECT_EQ(ft.bytes(), ff.bytes());
    EXPECT_EQ(wt.regs().used(), ft.bytes());
    EXPECT_EQ(wt.regs().used(), wf.regs().used());

    const std::string full_what = overflow_message(wf);
    EXPECT_NE(full_what.find("register file exhausted"), std::string::npos) << full_what;
    EXPECT_EQ(overflow_message(wt), full_what);
    EXPECT_EQ(wt.regs().used(), wf.regs().used());  // a failed allocation leaks nothing

#ifndef NDEBUG
    EXPECT_THROW((void)ft(0, 0), kami::PreconditionError);
    EXPECT_THROW((void)ft.row_data(0), kami::PreconditionError);
    EXPECT_THROW((void)ft.view().row(0), kami::PreconditionError);
#endif
  }
  EXPECT_EQ(wt.regs().used(), 0u);
  EXPECT_EQ(wt.regs().high_water(), wf.regs().high_water());
}

}  // namespace
}  // namespace kami::sim
