// Execution-mode equivalence (the contract behind the profile cache and the
// batched/autotune fast paths):
//   * TimingOnly must reproduce the Full cycle profile bit-for-bit — timing
//     depends only on shapes and bytes, never on operand values;
//   * NumericsOnly must reproduce the Full result matrix bit-for-bit — the
//     fast path replays the same per-element accumulation chains in the same
//     order and precision;
//   * the kernel's phase spans (record_regions) are identical in both timed
//     modes and tile the block's latency; NumericsOnly records none.
//   * the sim.* counters and gauges a run publishes are identical in Full
//     and TimingOnly, although a TimingOnly block holds no data plane.
// Checked across the 1D/2D/3D x device x precision grid, spill ratios,
// charged global I/O, and the block-level baselines, which time in Full and
// TimingOnly and refuse NumericsOnly (a ThreadBlock always times).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "../testing/expect.hpp"
#include "baselines/cublasdx_like.hpp"
#include "baselines/cutlass_like.hpp"
#include "baselines/reference.hpp"
#include "baselines/syclbench_like.hpp"
#include "core/autotune.hpp"
#include "core/batched.hpp"
#include "core/kami.hpp"
#include "core/profile_cache.hpp"
#include "obs/metrics.hpp"

namespace kami {
namespace {

using kami::testing::bits_equal;
using kami::testing::expect_profile_identical;

/// A kernel's phase trace: the root span runs over [0, latency], its children
/// cover it end to end with no gap or overlap, and it survives JSON.
void expect_phase_spans(const obs::RequestTrace& phases,
                        const sim::KernelProfile& profile) {
  const obs::Span* root = phases.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->begin_cycles, 0.0);
  EXPECT_EQ(root->end_cycles, profile.latency);
  const auto children = phases.children_of(0);
  ASSERT_FALSE(children.empty());
  double at = root->begin_cycles;
  for (const std::uint32_t id : children) {
    EXPECT_EQ(phases.spans[id].begin_cycles, at) << phases.spans[id].name;
    at = phases.spans[id].end_cycles;
  }
  EXPECT_EQ(at, root->end_cycles);
  EXPECT_EQ(obs::RequestTrace::from_json(phases.to_json()).canonical_text(),
            phases.canonical_text());
}

/// Run (algo, dev, m, n, k, opt) in all three modes on the same random
/// operands, recording phases, and cross-check the mode contract.
template <Scalar T>
void check_modes(Algo algo, const sim::DeviceSpec& dev, std::size_t m, std::size_t n,
                 std::size_t k, GemmOptions opt = {}) {
  SCOPED_TRACE(std::string(algo_name(algo)) + " " + dev.name + " m=" +
               std::to_string(m) + " n=" + std::to_string(n) + " k=" +
               std::to_string(k));
  Rng rng(m * 92821 + n * 1009 + k * 13);
  const auto A = random_matrix<T>(m, k, rng);
  const auto B = random_matrix<T>(k, n, rng);

  opt.mode = sim::ExecMode::Full;
  opt.record_regions = true;
  const auto full = gemm(algo, dev, A, B, opt);
  ASSERT_NE(full.regions, nullptr);
  expect_phase_spans(*full.regions, full.profile);

  GemmOptions topt = opt;
  topt.mode = sim::ExecMode::TimingOnly;
  const auto timing = gemm(algo, dev, A, B, topt);
  expect_profile_identical(timing.profile, full.profile);
  EXPECT_EQ(timing.warps, full.warps);
  EXPECT_EQ(timing.smem_ratio, full.smem_ratio);
  // No arithmetic ran: the TimingOnly output stays zero-initialized.
  EXPECT_TRUE(bits_equal(timing.C, Matrix<T>(m, n)));
  ASSERT_NE(timing.regions, nullptr);
  EXPECT_EQ(timing.regions->canonical_text(), full.regions->canonical_text());

  GemmOptions nopt = opt;
  nopt.mode = sim::ExecMode::NumericsOnly;
  const auto numer = gemm(algo, dev, A, B, nopt);
  EXPECT_TRUE(bits_equal(numer.C, full.C));
  // No cycles charged: the NumericsOnly profile stays empty.
  EXPECT_EQ(numer.profile.latency, 0.0);
  EXPECT_EQ(numer.profile.tc_busy, 0.0);
  EXPECT_EQ(numer.regions, nullptr);
}

// ---------------------------------------------------------------------------
// Square sweeps across all algorithms and the paper's devices
// ---------------------------------------------------------------------------

class ModeSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModeSizes, OneDFp16Gh200) {
  check_modes<fp16_t>(Algo::OneD, sim::gh200(), GetParam(), GetParam(), GetParam());
}

TEST_P(ModeSizes, TwoDFp16Gh200) {
  check_modes<fp16_t>(Algo::TwoD, sim::gh200(), GetParam(), GetParam(), GetParam());
}

TEST_P(ModeSizes, ThreeDFp16Gh200) {
  check_modes<fp16_t>(Algo::ThreeD, sim::gh200(), GetParam(), GetParam(), GetParam());
}

TEST_P(ModeSizes, OneDFp64Gh200) {
  check_modes<double>(Algo::OneD, sim::gh200(), GetParam(), GetParam(), GetParam());
}

TEST_P(ModeSizes, TwoDFp64Gh200) {
  check_modes<double>(Algo::TwoD, sim::gh200(), GetParam(), GetParam(), GetParam());
}

TEST_P(ModeSizes, ThreeDFp64Gh200) {
  check_modes<double>(Algo::ThreeD, sim::gh200(), GetParam(), GetParam(), GetParam());
}

TEST_P(ModeSizes, OneDFp16Rtx5090) {
  check_modes<fp16_t>(Algo::OneD, sim::rtx5090(), GetParam(), GetParam(), GetParam());
}

TEST_P(ModeSizes, TwoDFp16IntelMax1100) {
  check_modes<fp16_t>(Algo::TwoD, sim::intel_max1100(), GetParam(), GetParam(),
                      GetParam());
}

INSTANTIATE_TEST_SUITE_P(Orders, ModeSizes, ::testing::Values(16, 32, 64));

// ---------------------------------------------------------------------------
// Other precisions, rectangular shapes, and the 3D n-chunk fallback
// ---------------------------------------------------------------------------

TEST(ExecModes, OtherPrecisions) {
  check_modes<bf16_t>(Algo::OneD, sim::gh200(), 32, 32, 32);
  check_modes<tf32_t>(Algo::TwoD, sim::gh200(), 32, 32, 32);
  check_modes<fp8_e4m3_t>(Algo::ThreeD, sim::gh200(), 32, 32, 32);
}

TEST(ExecModes, RectangularShapes) {
  check_modes<fp16_t>(Algo::OneD, sim::gh200(), 64, 32, 48);
  check_modes<fp16_t>(Algo::TwoD, sim::gh200(), 64, 32, 48);
  check_modes<fp16_t>(Algo::ThreeD, sim::gh200(), 64, 32, 48);
}

TEST(ExecModes, ThreeDNChunkFallback) {
  // Order 192 FP16 forces the planner's n-chunked 3D plan.
  check_modes<fp16_t>(Algo::ThreeD, sim::gh200(), 192, 192, 192);
}

// SIMD tail shapes: n and k that are neither multiples of the numeric-path
// vector width (8 floats / 4 doubles) nor of kNumericKTile, so the vectorized
// kernel exercises its scalar j-tail and partial k-tile alongside the main
// body. Primes (17, 67, 127) leave remainders under every blocking choice.
TEST(ExecModes, SimdTailShapes) {
  check_modes<fp16_t>(Algo::OneD, sim::gh200(), 64, 17, 67);
  check_modes<fp16_t>(Algo::OneD, sim::gh200(), 32, 67, 127);
  check_modes<double>(Algo::OneD, sim::gh200(), 64, 17, 67);
  // 2D/3D feasibility needs m, n, k divisible by the warp grid (2), so 34 is
  // the smallest even non-multiple of both vector widths with an odd k chunk.
  check_modes<fp16_t>(Algo::TwoD, sim::gh200(), 34, 34, 34);
  check_modes<fp16_t>(Algo::ThreeD, sim::gh200(), 34, 34, 34);
}

// ---------------------------------------------------------------------------
// Spilled configurations and charged global I/O
// ---------------------------------------------------------------------------

TEST(ExecModes, SpilledOneDAndTwoD) {
  GemmOptions opt;
  opt.warps = 4;
  opt.smem_ratio = 0.5;
  check_modes<fp16_t>(Algo::OneD, sim::gh200(), 64, 64, 64, opt);
  check_modes<fp16_t>(Algo::TwoD, sim::gh200(), 64, 64, 64, opt);
}

TEST(ExecModes, SpilledThreeD) {
  GemmOptions opt;
  opt.warps = 8;
  opt.smem_ratio = 0.5;
  check_modes<fp16_t>(Algo::ThreeD, sim::gh200(), 64, 64, 64, opt);
}

TEST(ExecModes, ChargedGlobalIo) {
  GemmOptions opt;
  opt.charge_global_io = true;
  check_modes<fp16_t>(Algo::OneD, sim::gh200(), 64, 64, 64, opt);
  check_modes<double>(Algo::TwoD, sim::gh200(), 32, 32, 32, opt);
}

// Infeasible configurations must fail identically in every mode: the shape
// checks and allocations run unconditionally, so TimingOnly and the timed
// part of the pipeline report the same feasibility errors as Full.
TEST(ExecModes, TimingOnlyThrowsSameAsFull) {
  Rng rng(5);
  const auto A = random_matrix<double>(128, 128, rng);
  const auto B = random_matrix<double>(128, 128, rng);
  for (const auto mode : {sim::ExecMode::Full, sim::ExecMode::TimingOnly}) {
    GemmOptions opt;
    opt.mode = mode;
    EXPECT_THROW((void)gemm(Algo::ThreeD, sim::gh200(), A, B, opt),
                 sim::RegisterOverflow);
  }
}

// ---------------------------------------------------------------------------
// Baselines honour the modes too
// ---------------------------------------------------------------------------

/// Full and TimingOnly time a baseline identically; NumericsOnly is refused,
/// by name, by the ThreadBlock the baseline builds.
template <typename Call>
void expect_baseline_modes(Call&& call) {
  const auto full = call(sim::ExecMode::Full);
  expect_profile_identical(call(sim::ExecMode::TimingOnly).profile, full.profile);
  try {
    (void)call(sim::ExecMode::NumericsOnly);
    ADD_FAILURE() << "NumericsOnly must be refused";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("numerics_only"), std::string::npos) << e.what();
  }
}

TEST(ExecModes, CublasdxBaseline) {
  Rng rng(11);
  const auto A = random_matrix<fp16_t>(32, 32, rng);
  const auto B = random_matrix<fp16_t>(32, 32, rng);
  expect_baseline_modes([&](sim::ExecMode mode) {
    return baselines::cublasdx_gemm(sim::gh200(), A, B, 4, false, mode);
  });
}

TEST(ExecModes, CutlassBaseline) {
  Rng rng(13);
  const auto A = random_matrix<fp16_t>(48, 48, rng);
  const auto B = random_matrix<fp16_t>(48, 48, rng);
  expect_baseline_modes([&](sim::ExecMode mode) {
    return baselines::cutlass_gemm(sim::gh200(), A, B, true, nullptr, mode);
  });
}

TEST(ExecModes, SyclbenchBaseline) {
  Rng rng(17);
  const auto A = random_matrix<fp16_t>(32, 32, rng);
  const auto B = random_matrix<fp16_t>(32, 32, rng);
  expect_baseline_modes([&](sim::ExecMode mode) {
    return baselines::syclbench_gemm(sim::intel_max1100(), A, B, 4, false, mode);
  });
}

// ---------------------------------------------------------------------------
// sim.* metrics do not depend on the mode
// ---------------------------------------------------------------------------

/// The sim.* counters and gauges that run(mode) publishes into a fresh
/// registry.
template <typename Run>
std::map<std::string, double> sim_metrics(Run&& run, sim::ExecMode mode) {
  obs::MetricRegistry reg;
  {
    const obs::ScopedMetricShard shard(reg);
    run(mode);
  }
  std::map<std::string, double> out;
  for (const auto& values : {reg.counter_values(), reg.gauge_values()})
    for (const auto& [name, v] : values)
      if (name.starts_with("sim.")) out.emplace(name, v);
  return out;
}

/// Full and TimingOnly publish the same sim.* values, bit for bit.
template <typename Run>
void expect_sim_metrics_match(const std::string& kernel, Run&& run) {
  SCOPED_TRACE(kernel);
  const auto full = sim_metrics(run, sim::ExecMode::Full);
  EXPECT_GT(full.at("sim.mma.flops") + full.at("sim.vector.flops"), 0.0);
  EXPECT_EQ(sim_metrics(run, sim::ExecMode::TimingOnly), full);
}

TEST(ExecModes, SimMetricsMatchFullInTimingOnly) {
  Rng rng(31);
  const auto A = random_matrix<fp16_t>(32, 32, rng);
  const auto B = random_matrix<fp16_t>(32, 32, rng);
  for (const Algo algo : {Algo::OneD, Algo::TwoD, Algo::ThreeD}) {
    for (const bool spilled : {false, true}) {
      expect_sim_metrics_match(std::string(algo_name(algo)) + (spilled ? " spilled" : ""),
                               [&](sim::ExecMode mode) {
                                 GemmOptions opt;
                                 opt.mode = mode;
                                 if (spilled) {
                                   opt.smem_ratio = 0.5;
                                   opt.charge_global_io = true;
                                 }
                                 (void)gemm(algo, sim::gh200(), A, B, opt);
                               });
    }
  }
  expect_sim_metrics_match("cuBLASDx-like", [&](sim::ExecMode mode) {
    (void)baselines::cublasdx_gemm(sim::gh200(), A, B, 4, false, mode);
  });
  expect_sim_metrics_match("CUTLASS-like", [&](sim::ExecMode mode) {
    (void)baselines::cutlass_gemm(sim::gh200(), A, B, true, nullptr, mode);
  });
  expect_sim_metrics_match("SYCL-Bench-like", [&](sim::ExecMode mode) {
    (void)baselines::syclbench_gemm(sim::intel_max1100(), A, B, 4, false, mode);
  });
}

/// A block baseline's sim.* values and profile footprint, pinned as literals
/// in Full and in TimingOnly. `run(mode)` returns the baseline's profile.
template <typename Run>
void expect_pinned_baseline(const std::string& kernel, Run&& run, double latency,
                            std::size_t smem_bytes, std::size_t reg_bytes_per_warp,
                            const std::map<std::string, double>& expected) {
  for (const auto mode : {sim::ExecMode::Full, sim::ExecMode::TimingOnly}) {
    SCOPED_TRACE(kernel + " " + sim::exec_mode_name(mode));
    sim::KernelProfile profile;
    EXPECT_EQ(sim_metrics([&](sim::ExecMode m) { profile = run(m); }, mode), expected);
    EXPECT_EQ(profile.latency, latency);
    EXPECT_EQ(profile.smem_bytes, smem_bytes);
    EXPECT_EQ(profile.reg_bytes_per_warp, reg_bytes_per_warp);
  }
}

// One small point's values, recorded from the simulator when every warp
// still resolved its own metric handles: sharing one handle set per block
// must not move a sum. The block baselines' values, with global I/O charged,
// were recorded while their staging phase still copied A and B into shared
// memory: charging that copy without performing it must not move a sum
// either.
TEST(ExecModes, SimMetricsPinnedAtOneSmallPoint) {
  Rng rng(31);
  const auto A = random_matrix<fp16_t>(32, 32, rng);
  const auto B = random_matrix<fp16_t>(32, 32, rng);
  const std::map<std::string, double> expected = {
      {"sim.block.reg_high_water_bytes", 4096},
      {"sim.block.smem_high_water_bytes", 8192},
      {"sim.block.syncs", 7},
      {"sim.gmem.bytes_loaded", 0},
      {"sim.gmem.bytes_stored", 0},
      {"sim.mma.flops", 65536},
      {"sim.mma.instructions", 16},
      {"sim.reg.bytes_copied", 4096},
      {"sim.smem.bytes_read", 8192},
      {"sim.smem.bytes_written", 8192},
      {"sim.smem.conflict_excess_cycles", 0},
      {"sim.smem.conflicted_transfers", 0},
      {"sim.smem.high_water_bytes", 8192},
      {"sim.smem.tile_allocs", 12},
      {"sim.sync.wait_cycles", 3262.603008},
      {"sim.vector.flops", 1024},
  };
  for (const auto mode : {sim::ExecMode::Full, sim::ExecMode::TimingOnly}) {
    const auto run = [&](sim::ExecMode m) {
      GemmOptions opt;
      opt.mode = m;
      (void)gemm(Algo::ThreeD, sim::gh200(), A, B, opt);
    };
    EXPECT_EQ(sim_metrics(run, mode), expected) << sim::exec_mode_name(mode);
  }

  expect_pinned_baseline(
      "cuBLASDx-like",
      [&](sim::ExecMode m) {
        return baselines::cublasdx_gemm(sim::gh200(), A, B, 4, true, m).profile;
      },
      3973.3799306767864, 6144, 2304,
      {
          {"sim.block.reg_high_water_bytes", 2304},
          {"sim.block.smem_high_water_bytes", 6144},
          {"sim.block.syncs", 4},
          {"sim.gmem.bytes_loaded", 4096},
          {"sim.gmem.bytes_stored", 2048},
          {"sim.mma.flops", 131072},
          {"sim.mma.instructions", 32},
          {"sim.reg.bytes_copied", 0},
          {"sim.smem.bytes_read", 10240},
          {"sim.smem.bytes_written", 6144},
          {"sim.smem.conflict_excess_cycles", 0},
          {"sim.smem.conflicted_transfers", 0},
          {"sim.smem.high_water_bytes", 6144},
          {"sim.smem.tile_allocs", 3},
          {"sim.sync.wait_cycles", 4478.35294117647},
          {"sim.vector.flops", 0},
      });
  expect_pinned_baseline(
      "CUTLASS-like",
      [&](sim::ExecMode m) {
        return baselines::cutlass_gemm(sim::gh200(), A, B, true, nullptr, m).profile;
      },
      2950.1963081593926, 32768, 24576,
      {
          {"sim.block.reg_high_water_bytes", 24576},
          {"sim.block.smem_high_water_bytes", 32768},
          {"sim.block.syncs", 3},
          {"sim.gmem.bytes_loaded", 16384},
          {"sim.gmem.bytes_stored", 2048},
          {"sim.mma.flops", 1048576},
          {"sim.mma.instructions", 256},
          {"sim.reg.bytes_copied", 0},
          {"sim.smem.bytes_read", 65536},
          {"sim.smem.bytes_written", 49152},
          {"sim.smem.conflict_excess_cycles", 0},
          {"sim.smem.conflicted_transfers", 0},
          {"sim.smem.high_water_bytes", 32768},
          {"sim.smem.tile_allocs", 4},
          {"sim.sync.wait_cycles", 3537.8431372549016},
          {"sim.vector.flops", 0},
      });
  expect_pinned_baseline(
      "SYCL-Bench-like",
      [&](sim::ExecMode m) {
        return baselines::syclbench_gemm(sim::intel_max1100(), A, B, 4, true, m).profile;
      },
      14109.333333333336, 4096, 2304,
      {
          {"sim.block.reg_high_water_bytes", 2304},
          {"sim.block.smem_high_water_bytes", 4096},
          {"sim.block.syncs", 4},
          {"sim.gmem.bytes_loaded", 4096},
          {"sim.gmem.bytes_stored", 2048},
          {"sim.mma.flops", 0},
          {"sim.mma.instructions", 0},
          {"sim.reg.bytes_copied", 0},
          {"sim.smem.bytes_read", 10240},
          {"sim.smem.bytes_written", 4096},
          {"sim.smem.conflict_excess_cycles", 0},
          {"sim.smem.conflicted_transfers", 0},
          {"sim.smem.high_water_bytes", 4096},
          {"sim.smem.tile_allocs", 2},
          {"sim.sync.wait_cycles", 17202.222222222226},
          {"sim.vector.flops", 65536},
      });
}

// ---------------------------------------------------------------------------
// Consumers of the fast paths
// ---------------------------------------------------------------------------

// Batched GEMM has one path: each distinct shape is simulated once
// (TimingOnly, through the profile cache) and Full runs every entry's values
// through the numeric kernel. Full C must equal the per-entry Full loop and
// the reference bit for bit; TimingOnly (simulating on a cold cache) must time
// the batch identically and leave C zero-filled. Returns the Full result.
template <Scalar T>
core::BatchedResult<T> expect_batched_matches_per_entry(const std::vector<Matrix<T>>& As,
                                                        const std::vector<Matrix<T>>& Bs,
                                                        Algo algo) {
  const auto batched = core::kami_batched_gemm<T>(sim::gh200(), As, Bs, algo);
  EXPECT_EQ(batched.C.size(), As.size());
  GemmOptions per_entry;
  per_entry.charge_global_io = true;
  for (std::size_t i = 0; i < batched.C.size(); ++i) {
    EXPECT_TRUE(bits_equal(batched.C[i], gemm(algo, sim::gh200(), As[i], Bs[i], per_entry).C))
        << "entry " << i;
    EXPECT_TRUE(bits_equal(batched.C[i], baselines::reference_gemm(As[i], Bs[i])))
        << "entry " << i;
  }
  EXPECT_GT(batched.seconds, 0.0);
  EXPECT_GT(batched.tflops, 0.0);

  core::ProfileCache::global().clear();
  GemmOptions timing;
  timing.mode = sim::ExecMode::TimingOnly;
  const auto timed = core::kami_batched_gemm<T>(sim::gh200(), As, Bs, algo, timing);
  EXPECT_EQ(timed.seconds, batched.seconds);
  EXPECT_EQ(timed.tflops, batched.tflops);
  EXPECT_EQ(timed.C.size(), As.size());
  for (std::size_t i = 0; i < timed.C.size(); ++i)
    EXPECT_TRUE(bits_equal(timed.C[i], Matrix<T>(As[i].rows(), Bs[i].cols())))
        << "entry " << i;
  return batched;
}

template <Scalar T>
std::pair<std::vector<Matrix<T>>, std::vector<Matrix<T>>> batch_of(
    std::span<const std::array<std::size_t, 3>> shapes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix<T>> As, Bs;
  for (const auto& [m, n, k] : shapes) {
    As.push_back(random_matrix<T>(m, k, rng));
    Bs.push_back(random_matrix<T>(k, n, rng));
  }
  return {std::move(As), std::move(Bs)};
}

// The recording options (which have nowhere to record into) change nothing,
// and the strided entry point runs the same path on stacked operands.
TEST(ExecModes, BatchedFastPathMatchesPerEntryFull) {
  const std::array<std::size_t, 3> fp16_shapes[] = {
      {16, 16, 16}, {32, 32, 32}, {16, 16, 16}, {32, 16, 16}, {32, 32, 32}, {16, 16, 16}};
  const auto [As, Bs] = batch_of<fp16_t>(fp16_shapes, 23);
  const auto batched = expect_batched_matches_per_entry(As, Bs, Algo::OneD);

  const std::array<std::size_t, 3> fp64_shapes[] = {
      {32, 32, 32}, {64, 64, 64}, {32, 32, 32}, {48, 16, 64}, {16, 48, 32}, {64, 32, 128}};
  const auto [Ad, Bd] = batch_of<double>(fp64_shapes, 11);
  (void)expect_batched_matches_per_entry(Ad, Bd, Algo::TwoD);

  Rng rng(24);
  const auto Astack = random_matrix<fp16_t>(3 * 16, 32, rng);
  const auto Bstack = random_matrix<fp16_t>(3 * 32, 16, rng);
  const auto strided =
      core::kami_gemm_strided_batched<fp16_t>(sim::gh200(), Astack, Bstack, 3);
  GemmOptions timing;
  timing.mode = sim::ExecMode::TimingOnly;
  EXPECT_TRUE(bits_equal(core::kami_gemm_strided_batched<fp16_t>(sim::gh200(), Astack,
                                                                 Bstack, 3, Algo::OneD, timing),
                         Matrix<fp16_t>(3 * 16, 16)));
  for (const auto& [trace, regions] : {std::pair{true, false}, std::pair{false, true}}) {
    GemmOptions rec;
    rec.record_trace = trace;
    rec.record_regions = regions;
    const auto r = core::kami_batched_gemm<fp16_t>(sim::gh200(), As, Bs, Algo::OneD, rec);
    ASSERT_EQ(r.C.size(), As.size());
    for (std::size_t i = 0; i < As.size(); ++i)
      EXPECT_TRUE(bits_equal(r.C[i], batched.C[i])) << "entry " << i;
    EXPECT_EQ(r.seconds, batched.seconds);
    EXPECT_EQ(r.tflops, batched.tflops);
    EXPECT_TRUE(bits_equal(core::kami_gemm_strided_batched<fp16_t>(
                               sim::gh200(), Astack, Bstack, 3, Algo::OneD, rec),
                           strided));
  }
}

// best_gemm runs numerics once and grafts the tuned profile back on: the
// values match a plain Full run of the winning configuration and the profile
// is the tuned one (non-empty).
TEST(ExecModes, BestGemmKeepsValuesAndProfile) {
  Rng rng(29);
  const auto A = random_matrix<fp16_t>(32, 32, rng);
  const auto B = random_matrix<fp16_t>(32, 32, rng);
  const auto best = core::best_gemm<fp16_t>(sim::gh200(), A, B);
  EXPECT_GT(best.profile.latency, 0.0);
  EXPECT_GT(best.profile.useful_flops, 0.0);
  const auto tuned = core::autotune_gemm<fp16_t>(sim::gh200(), 32, 32, 32);
  GemmOptions opt;
  opt.warps = tuned.config.warps;
  opt.smem_ratio = tuned.config.smem_ratio;
  const auto full = gemm(tuned.config.algo, sim::gh200(), A, B, opt);
  EXPECT_TRUE(bits_equal(best.C, full.C));
  expect_profile_identical(best.profile, full.profile);
}

}  // namespace
}  // namespace kami
