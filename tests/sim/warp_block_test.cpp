#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "../testing/test_device.hpp"
#include "obs/metrics.hpp"
#include "sim/block.hpp"

namespace kami::sim {
namespace {

using kami::testing::tiny_device;

TEST(Warp, StoreSmemCostsOccupancyOnly) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  auto tile = blk.smem().alloc<float>(16, 8);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(16, 8);  // 512 B
    w.store_smem(tile, f.view());
  });
  // 512 B / 128 B/cyc = 4 cycles; stores do not stall on L_sm.
  EXPECT_DOUBLE_EQ(blk.cycles(), 4.0);
}

TEST(Warp, LoadSmemAddsLatency) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  auto tile = blk.smem().alloc<float>(16, 8);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(16, 8);
    w.load_smem(f, tile);
  });
  EXPECT_DOUBLE_EQ(blk.cycles(), 14.0);  // 4 occupancy + 10 latency
}

TEST(Warp, BankConflictsScaleOccupancy) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  auto tile = blk.smem().alloc<float>(16, 8);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(16, 8);
    w.load_smem(f, tile, /*theta_r=*/0.5);
  });
  EXPECT_DOUBLE_EQ(blk.cycles(), 18.0);  // 8 occupancy + 10 latency
}

TEST(Block, ConcurrentReadsSerializeOnThePort) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 2);
  auto tile = blk.smem().alloc<float>(16, 8);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(16, 8);
    w.load_smem(f, tile);
  });
  // warp0: port [0,4) -> done 14; warp1: port [4,8) -> done 18.
  EXPECT_DOUBLE_EQ(blk.warp(0).clock(), 14.0);
  EXPECT_DOUBLE_EQ(blk.warp(1).clock(), 18.0);
}

TEST(Block, SyncAlignsClocksAndRecordsWait) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 2);
  auto tile = blk.smem().alloc<float>(16, 8);
  blk.phase([&](Warp& w) {
    if (w.id() == 0) {
      auto f = w.alloc_fragment<float>(16, 8);
      w.load_smem(f, tile);  // 14 cycles
    }
  });
  blk.sync();
  EXPECT_DOUBLE_EQ(blk.warp(1).clock(), 14.0);
  EXPECT_DOUBLE_EQ(blk.warp(1).breakdown().sync_wait, 14.0);
}

// A block exists to time: NumericsOnly runs core::numeric_gemm instead, so
// the constructor refuses it, by name.
TEST(Block, RefusesNumericsOnly) {
  const auto dev = tiny_device();
  try {
    ThreadBlock blk(dev, 1, ExecMode::NumericsOnly);
    ADD_FAILURE() << "a NumericsOnly ThreadBlock must be refused";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("numerics_only"), std::string::npos) << e.what();
  }
}

TEST(Warp, MmaComputesExactProduct) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  blk.phase([&](Warp& w) {
    auto A = w.alloc_fragment<float>(2, 3);
    auto B = w.alloc_fragment<float>(3, 2);
    auto C = w.alloc_fragment<float>(2, 2);
    // A = [1 2 3; 4 5 6], B = [7 8; 9 10; 11 12].
    float av = 1.0f;
    for (std::size_t r = 0; r < 2; ++r)
      for (std::size_t c = 0; c < 3; ++c) A(r, c) = av++;
    float bv = 7.0f;
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t c = 0; c < 2; ++c) B(r, c) = bv++;
    C.fill(1.0f);  // MMA accumulates into C
    w.mma(C, A.view(), B.view());
    EXPECT_FLOAT_EQ(C(0, 0), 59.0f);   // 58 + 1
    EXPECT_FLOAT_EQ(C(0, 1), 65.0f);
    EXPECT_FLOAT_EQ(C(1, 0), 140.0f);  // 139 + 1
    EXPECT_FLOAT_EQ(C(1, 1), 155.0f);
  });
}

TEST(Warp, MmaCostPadsToInstructionShape) {
  const auto dev = tiny_device();  // fp32 shape m16n8k8, O_tc = 32
  ThreadBlock blk(dev, 1);
  blk.phase([&](Warp& w) {
    auto A = w.alloc_fragment<float>(16, 8);
    auto B = w.alloc_fragment<float>(8, 8);
    auto C = w.alloc_fragment<float>(16, 8);
    w.mma(C, A.view(), B.view());  // exactly one instruction
  });
  // 2*16*8*8 / 32 = 64 cycles.
  EXPECT_DOUBLE_EQ(blk.cycles(), 64.0);

  ThreadBlock blk2(dev, 1);
  blk2.phase([&](Warp& w) {
    auto A = w.alloc_fragment<float>(4, 4);
    auto B = w.alloc_fragment<float>(4, 4);
    auto C = w.alloc_fragment<float>(4, 4);
    w.mma(C, A.view(), B.view());  // tiny fragment still issues a full MMA
  });
  EXPECT_DOUBLE_EQ(blk2.cycles(), 64.0);
}

// mma_padded is mma's cost on the full fragments with the host arithmetic
// cut to the valid window: clock, tensor-core occupancy and the sim.mma.*
// counters match mma exactly, the window holds the product over the valid
// depth only, and C outside the window is untouched.
TEST(Warp, MmaPaddedChargesLikeMmaAndMultipliesOnlyTheWindow) {
  const auto dev = tiny_device();  // fp32 shape m16n8k8
  auto& reg = obs::MetricRegistry::global();
  auto fill = [](Fragment<float>& f, float base) {
    for (std::size_t r = 0; r < f.rows(); ++r)
      for (std::size_t c = 0; c < f.cols(); ++c)
        f(r, c) = base + static_cast<float>(r * f.cols() + c) / 64.0f;
  };
  // One 16x24 by 24x8 MMA, full or padded to a 5x3 window of depth 7;
  // returns clock, tensor-core occupancy and the two sim.mma.* counters.
  auto run = [&](bool padded) {
    obs::ScopedMetricsReset reset;
    ThreadBlock blk(dev, 1);
    blk.phase([&](Warp& w) {
      auto A = w.alloc_fragment<float>(16, 24);
      auto B = w.alloc_fragment<float>(24, 8);
      auto C = w.alloc_fragment<float>(16, 8);
      fill(A, 1.0f);
      fill(B, -0.5f);
      C.fill(3.0f);
      if (!padded) {
        w.mma(C, A.view(), B.view());
        return;
      }
      w.mma_padded(C, A.view(), B.view(), 5, 3, 7);
      // The window holds C + A[:5, :7] x B[:7, :3] (one ascending-k chain);
      // everything else keeps its old value.
      for (std::size_t r = 0; r < 16; ++r)
        for (std::size_t c = 0; c < 8; ++c) {
          float want = 3.0f;
          if (r < 5 && c < 3)
            for (std::size_t k = 0; k < 7; ++k) want += A(r, k) * B(k, c);
          EXPECT_EQ(C(r, c), want) << "(" << r << "," << c << ")";
        }
    });
    blk.flush_metrics();
    return std::tuple{blk.cycles(), blk.tc_busy_cycles(),
                      reg.counter("sim.mma.instructions").value(),
                      reg.counter("sim.mma.flops").value()};
  };
  const auto full = run(false);
  EXPECT_DOUBLE_EQ(std::get<0>(full), 3 * 64.0);  // 1 x 1 x 3 instructions
  EXPECT_DOUBLE_EQ(std::get<2>(full), 3.0);
  EXPECT_EQ(run(true), full);
}

TEST(Block, TensorCoreUnitsShareAcrossWarps) {
  const auto dev = tiny_device();  // 2 tensor cores
  ThreadBlock blk(dev, 4);
  blk.phase([&](Warp& w) {
    auto A = w.alloc_fragment<float>(16, 8);
    auto B = w.alloc_fragment<float>(8, 8);
    auto C = w.alloc_fragment<float>(16, 8);
    w.mma(C, A.view(), B.view());
  });
  // Warps 0,1 run on the two units [0,64); warps 2,3 queue [64,128).
  EXPECT_DOUBLE_EQ(blk.warp(0).clock(), 64.0);
  EXPECT_DOUBLE_EQ(blk.warp(1).clock(), 64.0);
  EXPECT_DOUBLE_EQ(blk.warp(2).clock(), 128.0);
  EXPECT_DOUBLE_EQ(blk.warp(3).clock(), 128.0);
}

TEST(Warp, MmaEfficiencyStretchesWarpLatencyNotUnitOccupancy) {
  auto dev = tiny_device();
  dev.mma_efficiency = 0.5;
  ThreadBlock blk(dev, 1);
  blk.phase([&](Warp& w) {
    auto A = w.alloc_fragment<float>(16, 8);
    auto B = w.alloc_fragment<float>(8, 8);
    auto C = w.alloc_fragment<float>(16, 8);
    w.mma(C, A.view(), B.view());
  });
  EXPECT_DOUBLE_EQ(blk.cycles(), 128.0);          // warp sees 64 / 0.5
  EXPECT_DOUBLE_EQ(blk.tc_busy_cycles(), 64.0);   // unit booked at ideal rate
}

TEST(Warp, CopyRegCost) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  blk.phase([&](Warp& w) {
    auto a = w.alloc_fragment<float>(16, 8);  // 512 B
    auto b = w.alloc_fragment<float>(16, 8);
    a(5, 5) = 3.0f;
    w.copy_reg(b, a.view());
    EXPECT_FLOAT_EQ(b(5, 5), 3.0f);
  });
  EXPECT_DOUBLE_EQ(blk.cycles(), 2.0);  // 1 + 512/512
}

TEST(Warp, GlobalLoadChargesLatencyAndBandwidth) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  Matrix<float> src(16, 8);
  src(3, 3) = 5.0f;
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(16, 8);
    w.load_global(f, src, 0, 0);
    EXPECT_FLOAT_EQ(f(3, 3), 5.0f);
  });
  EXPECT_DOUBLE_EQ(blk.cycles(), 132.0);  // 512/16 + 100
}

TEST(Warp, GmemChargingFlagSilencesCost) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  Matrix<float> src(16, 8);
  src(0, 1) = 2.0f;
  blk.phase([&](Warp& w) {
    w.set_gmem_charging(false);
    auto f = w.alloc_fragment<float>(16, 8);
    w.load_global(f, src, 0, 0);
    EXPECT_FLOAT_EQ(f(0, 1), 2.0f);  // data still moves
  });
  EXPECT_DOUBLE_EQ(blk.cycles(), 0.0);
}

TEST(Block, BreakdownCategoriesSumToWarpClock) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 2);
  auto tile = blk.smem().alloc<float>(8, 8);
  Matrix<float> g(8, 8);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<float>(8, 8);
    w.load_global(f, g, 0, 0);
    w.store_smem(tile, f.view());
    auto B = w.alloc_fragment<float>(8, 8);
    auto C = w.alloc_fragment<float>(8, 8);
    w.mma(C, f.view(), B.view());
  });
  blk.sync();
  for (int i = 0; i < 2; ++i) {
    const auto& bd = blk.warp(i).breakdown();
    EXPECT_NEAR(bd.total(), blk.warp(i).clock(), 1e-9);
  }
}

TEST(Block, DeterministicAcrossRuns) {
  const auto dev = tiny_device();
  auto run = [&]() {
    ThreadBlock blk(dev, 4);
    auto tile = blk.smem().alloc<float>(16, 16);
    blk.phase([&](Warp& w) {
      auto f = w.alloc_fragment<float>(16, 16);
      w.store_smem(tile, f.view());
      w.load_smem(f, tile);
      auto B = w.alloc_fragment<float>(16, 8);
      auto C = w.alloc_fragment<float>(16, 8);
      w.mma(C, f.view(0, 0, 16, 16), B.view());
    });
    blk.sync();
    return blk.cycles();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Warp, ScalarFmaUsesVectorPipe) {
  const auto dev = tiny_device();  // 64 vector flops/cycle
  ThreadBlock blk(dev, 1);
  blk.phase([&](Warp& w) {
    auto A = w.alloc_fragment<float>(8, 8);
    auto B = w.alloc_fragment<float>(8, 8);
    auto C = w.alloc_fragment<float>(8, 8);
    w.fma_scalar(C, A.view(), B.view());
  });
  // 2*8*8*8 = 1024 flops / 64 = 16 cycles on the vector pipe.
  EXPECT_DOUBLE_EQ(blk.cycles(), 16.0);
  EXPECT_DOUBLE_EQ(blk.vector_busy_cycles(), 16.0);
  EXPECT_DOUBLE_EQ(blk.tc_busy_cycles(), 0.0);
}

TEST(Warp, MmaInnerDimensionMismatchRejected) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  blk.phase([&](Warp& w) {
    auto A = w.alloc_fragment<float>(4, 5);
    auto B = w.alloc_fragment<float>(4, 4);
    auto C = w.alloc_fragment<float>(4, 4);
    EXPECT_THROW(w.mma(C, A.view(), B.view()), kami::PreconditionError);
  });
}

}  // namespace
}  // namespace kami::sim
