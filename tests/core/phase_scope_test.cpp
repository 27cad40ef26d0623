// core::PhaseScope: the RAII bracket that opens a kernel phase span on the
// block's simulated clock and closes it exactly once.
#include "core/phase_scope.hpp"

#include <gtest/gtest.h>

#include "../testing/test_device.hpp"
#include "sim/block.hpp"

namespace kami::obs {
namespace {

using kami::testing::tiny_device;

TEST(PhaseScope, NullBuilderIsNoOp) {
  const auto dev = tiny_device();
  const sim::ThreadBlock blk(dev, 1);
  {
    core::PhaseScope r(nullptr, blk, "anything");  // must not crash
  }
  EXPECT_EQ(core::finish_phases(nullptr, blk), nullptr);
}

TEST(PhaseScope, CloseLeavesEarlyExactlyOnce) {
  const auto dev = tiny_device();
  sim::ThreadBlock blk(dev, 1);
  TraceBuilder phases("unit", "kernel", blk.cycles());
  auto tile = blk.smem().alloc<float>(8, 8);
  const auto store = [&] {
    blk.phase([&](sim::Warp& w) {
      auto f = w.alloc_fragment<float>(8, 8);
      w.store_smem(tile, f.view());
    });
  };
  double closed_at = 0.0;
  {
    core::PhaseScope r(&phases, blk, "outer");
    store();
    r.close();  // the destructor must not close a second span
    closed_at = blk.cycles();
    store();
  }
  EXPECT_EQ(phases.depth(), 1);
  const auto spans = core::finish_phases(&phases, blk);
  ASSERT_EQ(spans->spans.size(), 2u);
  EXPECT_GT(closed_at, 0.0);
  EXPECT_EQ(spans->spans[1].end_cycles, closed_at);
  EXPECT_EQ(spans->spans[0].end_cycles, blk.cycles());
  EXPECT_GT(blk.cycles(), closed_at);
}

}  // namespace
}  // namespace kami::obs
