#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "../testing/test_device.hpp"
#include "obs/trace_analysis.hpp"
#include "sim/block.hpp"

namespace kami::sim {
namespace {

using kami::testing::tiny_device;

TEST(Trace, RecordsEveryChargedOperation) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 2);
  auto& trace = blk.enable_trace();
  auto tile = blk.smem().alloc<float>(8, 8);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(8, 8);
    w.store_smem(tile, f.view());
    w.load_smem(f, tile);
    auto B = w.alloc_fragment<float>(8, 8);
    auto C = w.alloc_fragment<float>(8, 8);
    w.mma(C, f.view(), B.view());
  });
  blk.sync();
  // 2 warps x (store + load + mma) plus the laggard's sync event.
  EXPECT_GE(trace.size(), 6u);
  EXPECT_EQ(trace.warp_events(0).size() + trace.warp_events(1).size(), trace.size());
}

TEST(Trace, EventTimesAreConsistent) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 4);
  auto& trace = blk.enable_trace();
  auto tile = blk.smem().alloc<float>(16, 16);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(16, 16);
    w.store_smem(tile, f.view());
    w.load_smem(f, tile);
  });
  blk.sync();
  for (const auto& ev : trace.events()) {
    EXPECT_LE(ev.issue, ev.start) << op_kind_name(ev.kind);
    EXPECT_LE(ev.start, ev.end);
    EXPECT_GE(ev.amount, 0.0);
  }
}

TEST(Trace, SerialPortEventsNeverOverlap) {
  // The shared-memory port is a serial resource: occupancy intervals of
  // smem events must be pairwise disjoint across all warps.
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 4);
  auto& trace = blk.enable_trace();
  auto tile = blk.smem().alloc<float>(16, 16);
  for (int round = 0; round < 3; ++round) {
    blk.phase([&](Warp& w) {
      auto f = w.alloc_fragment<float>(16, 16);
      w.load_smem(f, tile);
      w.store_smem(tile, f.view());
    });
    blk.sync();
  }
  std::vector<std::pair<Cycles, Cycles>> intervals;
  const double bw = dev.smem_bytes_per_cycle();
  for (const auto& ev : trace.events()) {
    if (ev.kind != OpKind::SmemLoad && ev.kind != OpKind::SmemStore) continue;
    intervals.emplace_back(ev.start, ev.start + ev.amount / bw);
  }
  std::sort(intervals.begin(), intervals.end());
  for (std::size_t i = 1; i < intervals.size(); ++i)
    EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-9);
}

TEST(Trace, WarpEventsAreIssueOrdered) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 2);
  auto& trace = blk.enable_trace();
  auto tile = blk.smem().alloc<float>(8, 8);
  for (int i = 0; i < 4; ++i) {
    blk.phase([&](Warp& w) {
      auto f = w.alloc_fragment<float>(8, 8);
      w.load_smem(f, tile);
    });
    blk.sync();
  }
  for (int wid = 0; wid < 2; ++wid) {
    const auto evs = trace.warp_events(wid);
    for (std::size_t i = 1; i < evs.size(); ++i)
      EXPECT_LE(evs[i - 1].end, evs[i].issue + 1e-9);
  }
}

TEST(Trace, AmountAggregation) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  auto& trace = blk.enable_trace();
  auto tile = blk.smem().alloc<float>(8, 8);  // 256 B
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(8, 8);
    w.store_smem(tile, f.view());
    w.store_smem(tile, f.view());
    w.load_smem(f, tile);
  });
  EXPECT_DOUBLE_EQ(trace.total_amount(OpKind::SmemStore), 512.0);
  EXPECT_DOUBLE_EQ(trace.total_amount(OpKind::SmemLoad), 256.0);
  EXPECT_DOUBLE_EQ(trace.total_amount(OpKind::Mma), 0.0);
}

TEST(Trace, ChromeJsonIsWellFormedIsh) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  auto& trace = blk.enable_trace();
  auto tile = blk.smem().alloc<float>(8, 8);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(8, 8);
    w.store_smem(tile, f.view());
  });
  std::ostringstream os;
  obs::dump_chrome_trace_with_regions(os, trace, nullptr);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("smem_store"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, DisabledByDefault) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  EXPECT_EQ(blk.trace(), nullptr);
  auto tile = blk.smem().alloc<float>(8, 8);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(8, 8);
    w.store_smem(tile, f.view());
  });
  EXPECT_EQ(blk.trace(), nullptr);  // no recorder was ever attached
}

TEST(Trace, TakeTraceDetachesRecorder) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  blk.enable_trace();
  auto tile = blk.smem().alloc<float>(8, 8);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(8, 8);
    w.store_smem(tile, f.view());
  });
  auto trace = blk.take_trace();
  ASSERT_NE(trace, nullptr);
  const auto count = trace->size();
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(8, 8);
    w.store_smem(tile, f.view());
  });
  EXPECT_EQ(trace->size(), count);  // detached: no further events
}

TEST(Trace, EnableTraceAfterTakeTraceStartsAFreshRecording) {
  // Regression: enable_trace() used to return the stale recorder after
  // take_trace() detached it, so a re-enabled trace silently saw nothing.
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  blk.enable_trace();
  auto tile = blk.smem().alloc<float>(8, 8);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(8, 8);
    w.store_smem(tile, f.view());
  });
  auto first = blk.take_trace();
  ASSERT_NE(first, nullptr);
  const auto first_count = first->size();
  EXPECT_GE(first_count, 1u);

  auto& second = blk.enable_trace();
  EXPECT_EQ(second.size(), 0u);  // fresh recorder, not the detached one
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(8, 8);
    w.store_smem(tile, f.view());
    w.load_smem(f, tile);
  });
  EXPECT_GE(second.size(), 2u);              // new events land in the new trace
  EXPECT_EQ(first->size(), first_count);     // the taken trace stays frozen
  EXPECT_EQ(blk.trace(), &second);
}

}  // namespace
}  // namespace kami::sim
