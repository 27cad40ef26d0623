#include "obs/trace_analysis.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "../testing/test_device.hpp"
#include "core/phase_scope.hpp"
#include "sim/bank_conflicts.hpp"
#include "sim/block.hpp"

namespace kami::obs {
namespace {

using kami::testing::tiny_device;

/// A small traced run: 2 warps do smem traffic and an MMA each.
std::shared_ptr<sim::Trace> traced_run(const sim::DeviceSpec& dev) {
  sim::ThreadBlock blk(dev, 2);
  blk.enable_trace();
  auto tile = blk.smem().alloc<float>(16, 16);
  blk.phase([&](sim::Warp& w) {
    auto f = w.alloc_fragment<float>(16, 16);
    w.store_smem(tile, f.view());
    w.load_smem(f, tile);
    auto B = w.alloc_fragment<float>(16, 16);
    auto C = w.alloc_fragment<float>(16, 16);
    w.mma(C, f.view(), B.view());
  });
  blk.sync();
  return blk.take_trace();
}

TEST(UtilizationTimeline, BusyNeverExceedsWallClock) {
  const auto dev = tiny_device();
  const auto trace = traced_run(dev);
  ASSERT_NE(trace, nullptr);
  const UtilizationTimeline u = utilization_timeline(*trace, dev, 16);

  ASSERT_EQ(u.resources.size(), kNumResources);
  ASSERT_EQ(u.busy.size(), kNumResources);
  EXPECT_GT(u.wall_cycles, 0.0);
  EXPECT_DOUBLE_EQ(u.bucket_cycles * 16.0, u.wall_cycles);
  for (std::size_t r = 0; r < kNumResources; ++r) {
    ASSERT_EQ(u.busy[r].size(), 16u);
    for (double frac : u.busy[r]) {
      EXPECT_GE(frac, 0.0);
      EXPECT_LE(frac, 1.0);
    }
    EXPECT_LE(u.busy_cycles(r), u.wall_cycles + 1e-9);
  }
  // The run did smem traffic and MMAs, so those resources saw activity.
  EXPECT_GT(u.busy_cycles(static_cast<std::size_t>(Resource::SmemPort)), 0.0);
  EXPECT_GT(u.busy_cycles(static_cast<std::size_t>(Resource::TensorCore)), 0.0);
  // No global traffic was charged.
  EXPECT_DOUBLE_EQ(u.busy_cycles(static_cast<std::size_t>(Resource::GmemPort)), 0.0);
}

TEST(UtilizationTimeline, SmemBusyMatchesPortAccounting) {
  // Busy cycles reconstructed from the trace must equal bytes / B_sm, the
  // quantity PortTimeline booked (latency excluded).
  const auto dev = tiny_device();
  const auto trace = traced_run(dev);
  double bytes = trace->total_amount(sim::OpKind::SmemStore) +
                 trace->total_amount(sim::OpKind::SmemLoad);
  const UtilizationTimeline u = utilization_timeline(*trace, dev, 64);
  EXPECT_NEAR(u.busy_cycles(static_cast<std::size_t>(Resource::SmemPort)),
              bytes / dev.smem_bytes_per_cycle(), 1e-6);
}

TEST(CriticalWarp, PicksTheBusiestWarp) {
  sim::Trace tr;
  tr.record({0, sim::OpKind::Mma, 0.0, 0.0, 10.0, 100.0});
  tr.record({1, sim::OpKind::Mma, 0.0, 0.0, 25.0, 100.0});
  tr.record({1, sim::OpKind::SyncWait, 25.0, 25.0, 30.0, 5.0});
  const CriticalWarpReport rep = critical_warp_analysis(tr);
  EXPECT_EQ(rep.critical_warp, 1);
  ASSERT_EQ(rep.warps.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.warps[0].busy_cycles, 10.0);
  EXPECT_DOUBLE_EQ(rep.warps[1].busy_cycles, 25.0);
  EXPECT_DOUBLE_EQ(rep.warps[1].sync_wait_cycles, 5.0);
  EXPECT_DOUBLE_EQ(rep.warps[1].finish_cycles, 30.0);
}

TEST(CriticalWarp, TiesBreakToLowestId) {
  sim::Trace tr;
  tr.record({3, sim::OpKind::Mma, 0.0, 0.0, 10.0, 1.0});
  tr.record({1, sim::OpKind::Mma, 0.0, 0.0, 10.0, 1.0});
  EXPECT_EQ(critical_warp_analysis(tr).critical_warp, 1);
}

TEST(BankConflictHeatmap, MatchesStridedThetaModel) {
  const auto dev = tiny_device();  // 32 banks x 4 B
  const BankConflictHeatmap hm = bank_conflict_heatmap(dev, 4, {1, 2, 32});
  ASSERT_EQ(hm.strides.size(), 3u);
  ASSERT_EQ(hm.theta.size(), 3u);
  ASSERT_EQ(hm.word_hits.size(), 3u);

  // Unit stride: one word per bank, conflict free.
  EXPECT_DOUBLE_EQ(hm.theta[0], 1.0);
  for (std::size_t hits : hm.word_hits[0]) EXPECT_EQ(hits, 1u);

  // Stride 32 with 4 B elements on 32 banks: all 32 lanes pile onto bank 0.
  EXPECT_DOUBLE_EQ(hm.theta[2], 1.0 / 32.0);
  EXPECT_EQ(hm.word_hits[2][0], 32u);
  for (std::size_t b = 1; b < hm.banks; ++b) EXPECT_EQ(hm.word_hits[2][b], 0u);

  // theta column always equals the simulator's own conflict model.
  for (std::size_t i = 0; i < hm.strides.size(); ++i)
    EXPECT_DOUBLE_EQ(hm.theta[i], sim::strided_access_theta(dev, 4, hm.strides[i]));
}

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
