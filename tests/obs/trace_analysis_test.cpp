#include "obs/trace_analysis.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "../testing/test_device.hpp"
#include "core/phase_scope.hpp"
#include "sim/block.hpp"

namespace kami::obs {
namespace {

using kami::testing::tiny_device;

TEST(RegionOpBreakdown, AttributesOpsToInnermostRegion) {
  const auto dev = tiny_device();
  sim::ThreadBlock blk(dev, 1);
  blk.enable_trace();
  TraceBuilder phases("unit", "kernel", blk.cycles());
  auto tile = blk.smem().alloc<float>(8, 8);
  {
    core::PhaseScope r(&phases, blk, "copy_phase");
    blk.phase([&](sim::Warp& w) {
      auto f = w.alloc_fragment<float>(8, 8);
      w.store_smem(tile, f.view());
    });
    blk.sync();
  }
  {
    core::PhaseScope r(&phases, blk, "compute_phase");
    blk.phase([&](sim::Warp& w) {
      auto A = w.alloc_fragment<float>(8, 8);
      auto B = w.alloc_fragment<float>(8, 8);
      auto C = w.alloc_fragment<float>(8, 8);
      w.mma(C, A.view(), B.view());
    });
    blk.sync();
  }
  const auto spans = core::finish_phases(&phases, blk);
  const auto trace = blk.take_trace();
  const auto breakdown = region_op_breakdown(*trace, *spans);

  double store_in_copy = 0.0, mma_in_compute = 0.0, mma_elsewhere = 0.0;
  for (const auto& rb : breakdown) {
    for (const auto& [kind, cycles] : rb.op_cycles) {
      if (rb.path == "kernel/copy_phase" && kind == "smem_store") store_in_copy += cycles;
      if (rb.path == "kernel/compute_phase" && kind == "mma") mma_in_compute += cycles;
      if (rb.path != "kernel/compute_phase" && kind == "mma") mma_elsewhere += cycles;
    }
  }
  EXPECT_GT(store_in_copy, 0.0);
  EXPECT_GT(mma_in_compute, 0.0);
  EXPECT_DOUBLE_EQ(mma_elsewhere, 0.0);
}

TEST(ChromeTraceWithRegions, EmitsMetadataAndPhaseTracks) {
  const auto dev = tiny_device();
  sim::ThreadBlock blk(dev, 2);
  blk.enable_trace();
  TraceBuilder phases("unit", "kernel", blk.cycles());
  auto tile = blk.smem().alloc<float>(8, 8);
  {
    core::PhaseScope r(&phases, blk, "phase \"quoted\"");  // must be escaped in the JSON
    blk.phase([&](sim::Warp& w) {
      auto f = w.alloc_fragment<float>(8, 8);
      w.store_smem(tile, f.view());
    });
    blk.sync();
  }
  const auto spans = core::finish_phases(&phases, blk);
  const auto trace = blk.take_trace();

  std::ostringstream os;
  dump_chrome_trace_with_regions(os, *trace, spans.get(), "unit test");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("warp 0"), std::string::npos);
  EXPECT_NE(json.find("warp 1"), std::string::npos);
  EXPECT_NE(json.find("phases (depth 1)"), std::string::npos);
  EXPECT_NE(json.find("phases (depth 2)"), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"kernel/phase \\\"quoted\\\"\""), std::string::npos);
  // The whole document must parse as JSON (escaping really worked).
  EXPECT_NO_THROW(Json::parse(json));
}

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
