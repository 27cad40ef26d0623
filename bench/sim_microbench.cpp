// Microbenchmarks of the simulator substrate itself: how fast the host can
// simulate KAMI kernels — useful when sizing sweeps (a full Fig 8
// reproduction simulates hundreds of blocks).
//
// The default run is a wall-clock comparison harness for the execution-mode
// split and the profile cache:
//   * Full vs TimingOnly vs NumericsOnly per kernel (with bit-equivalence
//     checks alongside the timings);
//   * autotune: the pre-split path (one Full simulation per candidate on
//     random operands) vs the cached TimingOnly path, cold and warm;
//   * the block baselines' Full-mode host cost against TimingOnly (with
//     profile and bit-for-bit reference checks alongside);
//   * batched: the pre-split per-entry Full loop vs the fast path (one
//     cached TimingOnly profile per distinct shape + NumericsOnly values);
//   * ProfileCache cold miss vs warm hit.
// It prints tables and exports a kami.obs.run report via --json (the
// speedups also land in the report meta). Every host column except the
// single-call "full cold" is the mean call over one kWindowSeconds window.
// --smoke shrinks the orders and batch sizes for ctest. `--gbench [args...]`
// instead runs the google-benchmark kernel microbenchmarks.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "baselines/reference.hpp"
#include "bench_common.hpp"
#include "core/autotune.hpp"
#include "core/batched.hpp"
#include "core/numeric_path.hpp"
#include "core/profile_cache.hpp"
#include "model/cost_model.hpp"
#include "verify/differential.hpp"

namespace kami {
namespace {

/// Flipped by any failed bit/profile-equivalence check; the binary exits
/// nonzero so CI catches a Full-mode data-plane divergence even without the
/// baseline diff.
bool g_equivalence_ok = true;

// ---------------------------------------------------------------------------
// google-benchmark kernel microbenchmarks (--gbench)
// ---------------------------------------------------------------------------

template <Scalar T>
void BM_Kami1dBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const auto A = random_matrix<T>(n, n, rng);
  const auto B = random_matrix<T>(n, n, rng);
  for (auto _ : state) {
    auto r = core::kami_1d_gemm(sim::gh200(), A, B);
    benchmark::DoNotOptimize(r.profile.latency);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Kami1dBlock<fp16_t>)->Arg(16)->Arg(64)->Arg(128);
BENCHMARK(BM_Kami1dBlock<double>)->Arg(64);

/// One KAMI kernel at order 64 in each execution mode (Arg0 = algo index,
/// Arg1 = mode index) — the host-cost ratio the mode split buys.
void BM_KamiMode(benchmark::State& state) {
  const auto algo = static_cast<Algo>(state.range(0));
  const auto mode = static_cast<sim::ExecMode>(state.range(1));
  Rng rng(64);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  GemmOptions opt;
  opt.mode = mode;
  for (auto _ : state) {
    auto r = gemm(algo, sim::gh200(), A, B, opt);
    benchmark::DoNotOptimize(r.C.data());
  }
  state.SetLabel(std::string(algo_name(algo)) + "/" + sim::exec_mode_name(mode));
}
BENCHMARK(BM_KamiMode)
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2}});  // {1D,2D,3D} x {Full,Timing,Numerics}

void BM_Kami2dBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const auto A = random_matrix<fp16_t>(n, n, rng);
  const auto B = random_matrix<fp16_t>(n, n, rng);
  for (auto _ : state) {
    auto r = core::kami_2d_gemm(sim::gh200(), A, B);
    benchmark::DoNotOptimize(r.profile.latency);
  }
}
BENCHMARK(BM_Kami2dBlock)->Arg(64);

void BM_Kami3dBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const auto A = random_matrix<fp16_t>(n, n, rng);
  const auto B = random_matrix<fp16_t>(n, n, rng);
  for (auto _ : state) {
    auto r = core::kami_3d_gemm(sim::gh200(), A, B);
    benchmark::DoNotOptimize(r.profile.latency);
  }
}
BENCHMARK(BM_Kami3dBlock)->Arg(64);

void BM_CublasdxBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const auto A = random_matrix<fp16_t>(n, n, rng);
  const auto B = random_matrix<fp16_t>(n, n, rng);
  for (auto _ : state) {
    auto r = baselines::cublasdx_gemm(sim::gh200(), A, B);
    benchmark::DoNotOptimize(r.profile.latency);
  }
}
BENCHMARK(BM_CublasdxBlock)->Arg(64);

void BM_Fp16Conversion(benchmark::State& state) {
  Rng rng(1);
  std::vector<float> xs(4096);
  for (auto& x : xs) x = static_cast<float>(rng.uniform(-100.0, 100.0));
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (float x : xs) acc += fp16_t::encode(x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_Fp16Conversion);

// ---------------------------------------------------------------------------
// Comparison harness (the default run)
// ---------------------------------------------------------------------------

/// The wall-clock window every host column is timed over.
constexpr double kWindowSeconds = 0.05;

/// Mean wall seconds per call of fn() over as many calls as fill
/// kWindowSeconds (at least one). A call of a few hundredths of a millisecond
/// timed on its own is mostly scheduler noise; a window of them is a rate.
template <typename F>
double seconds_per_call(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t calls = 0;
  std::chrono::duration<double> dt{};
  do {
    fn();
    ++calls;
    dt = std::chrono::steady_clock::now() - t0;
  } while (dt.count() < kWindowSeconds);
  return dt.count() / static_cast<double>(calls);
}

/// Element bit patterns equal (-0 vs +0 and NaN payloads count).
template <Scalar T>
bool bits_identical(const Matrix<T>& a, const Matrix<T>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(T)) == 0;
}

std::string ms(double seconds) { return fmt_double(seconds * 1e3, 3); }
std::string ratio(double base, double fast) {
  return fast > 0.0 ? fmt_double(base / fast, 1) + "x" : "-";
}
/// Host-side arithmetic rate: useful GEMM flops per wall second.
std::string gflops(double flops, double seconds) {
  return seconds > 0.0 ? fmt_double(flops / seconds / 1e9, 2) : "-";
}

void record_speedup(const std::string& key, double base, double fast) {
  if (fast > 0.0) bench::run_report().set_meta(key, fmt_double(base / fast, 2));
}

/// Full vs TimingOnly vs NumericsOnly per kernel, with the equivalence
/// checks the fast paths rely on.
void mode_comparison() {
  TablePrinter table({"kernel", "full (ms)", "timing (ms)", "numerics (ms)",
                      "timing speedup", "numerics speedup", "numerics GFLOP/s",
                      "profile==full", "C==full"});
  double numerics_gflops_1d = 0.0;
  for (const Algo algo : {Algo::OneD, Algo::TwoD, Algo::ThreeD}) {
    Rng rng(64);
    const auto A = random_matrix<fp16_t>(64, 64, rng);
    const auto B = random_matrix<fp16_t>(64, 64, rng);
    GemmOptions full_opt, timing_opt, numerics_opt;
    timing_opt.mode = sim::ExecMode::TimingOnly;
    numerics_opt.mode = sim::ExecMode::NumericsOnly;
    const auto& dev = sim::gh200();

    const auto full = gemm(algo, dev, A, B, full_opt);
    const auto timing = gemm(algo, dev, A, B, timing_opt);
    const auto numer = gemm(algo, dev, A, B, numerics_opt);

    const double t_full = seconds_per_call([&] {
      benchmark::DoNotOptimize(gemm(algo, dev, A, B, full_opt).profile.latency);
    });
    const double t_timing = seconds_per_call([&] {
      benchmark::DoNotOptimize(gemm(algo, dev, A, B, timing_opt).profile.latency);
    });
    const double t_numer = seconds_per_call([&] {
      benchmark::DoNotOptimize(gemm(algo, dev, A, B, numerics_opt).C.data());
    });

    const double flops = model::gemm_flops(64, 64, 64);
    if (algo == Algo::OneD && t_numer > 0.0) numerics_gflops_1d = flops / t_numer / 1e9;
    const bool prof_eq = verify::profile_diff(timing.profile, full.profile).empty();
    const bool bits_eq = bits_identical(numer.C, full.C);
    if (!prof_eq || !bits_eq) g_equivalence_ok = false;
    table.add_row({std::string(algo_name(algo)) + " fp16 64", ms(t_full), ms(t_timing),
                   ms(t_numer), ratio(t_full, t_timing), ratio(t_full, t_numer),
                   gflops(flops, t_numer), prof_eq ? "yes" : "NO",
                   bits_eq ? "yes" : "NO"});
  }
  bench::emit_table(table, "Execution modes, host cost per simulated block");
  bench::run_report().set_meta("numerics_gflops_1d_fp16_64",
                               fmt_double(numerics_gflops_1d, 2));
}

/// Full-mode host cost over the Fig 8 square sweep (GH200 FP16, all three
/// kernels): the data-plane throughput the SIMD fragment kernels and arena
/// transfers buy. Cold is the first simulation of the shape (planning and
/// arena growth included), timed as one call; warm is the mean call over
/// the timing window, like every other host column. The equivalence
/// columns assert that Full stayed profile-identical to TimingOnly and
/// bit-identical to NumericsOnly; any "NO" fails the binary's exit code.
///
/// When `gate` is given, the stable subset (orders 16/32/64 — the --smoke
/// orders, so smoke and full runs produce the same gate table) also lands in
/// a standalone gate report: only machine-independent cells (simulated
/// cycles, equivalence flags) plus dimensionless host-cost ratios. CI
/// `kami_prof diff`s it against the committed baseline: the logical columns,
/// named in the report's exact_columns meta key, must match exactly, and the
/// host ratio gets a wide tolerance.
void fig08_full_sweep(bool smoke, obs::RunReport* gate) {
  const auto& dev = sim::gh200();
  const std::vector<std::size_t> orders =
      smoke ? std::vector<std::size_t>{16, 32, 64}
            : std::vector<std::size_t>{16, 32, 64, 128, 192};
  TablePrinter table({"order", "kernel", "full cold (ms)", "full warm (ms)",
                      "timing (ms)", "full/timing", "profile==full", "C==full"});
  TablePrinter gate_table({"order", "kernel", "latency (cycles)", "profile==full",
                           "C==full", "full/timing"});
  double warm_total = 0.0;
  bool sweep_ok = true;
  for (const std::size_t n : orders) {
    for (const Algo algo : {Algo::OneD, Algo::TwoD, Algo::ThreeD}) {
      const bool in_gate = gate != nullptr && n <= 64;
      const std::string name(algo_name(algo));
      Rng rng(n);
      const auto A = random_matrix<fp16_t>(n, n, rng);
      const auto B = random_matrix<fp16_t>(n, n, rng);
      GemmOptions full_opt, timing_opt, numerics_opt;
      timing_opt.mode = sim::ExecMode::TimingOnly;
      numerics_opt.mode = sim::ExecMode::NumericsOnly;

      std::optional<GemmResult<fp16_t>> full;
      const auto t0 = std::chrono::steady_clock::now();
      try {
        full.emplace(gemm(algo, dev, A, B, full_opt));
      } catch (const PreconditionError&) {
        // Infeasibility is deterministic, so "-" rows are stable gate cells.
        table.add_row({std::to_string(n), name, "-", "-", "-", "-", "-", "-"});
        if (in_gate)
          gate_table.add_row({std::to_string(n), name, "-", "-", "-", "-"});
        continue;
      }
      const std::chrono::duration<double> cold_dt =
          std::chrono::steady_clock::now() - t0;

      const auto timing = gemm(algo, dev, A, B, timing_opt);
      const auto numer = gemm(algo, dev, A, B, numerics_opt);
      const double t_warm = seconds_per_call([&] {
        benchmark::DoNotOptimize(gemm(algo, dev, A, B, full_opt).profile.latency);
      });
      const double t_timing = seconds_per_call([&] {
        benchmark::DoNotOptimize(gemm(algo, dev, A, B, timing_opt).profile.latency);
      });

      const bool prof_eq = verify::profile_diff(timing.profile, full->profile).empty();
      const bool bits_eq = bits_identical(numer.C, full->C);
      if (!prof_eq || !bits_eq) {
        g_equivalence_ok = false;
        sweep_ok = false;
      }
      warm_total += t_warm;
      table.add_row({std::to_string(n), name, ms(cold_dt.count()), ms(t_warm),
                     ms(t_timing), ratio(t_warm, t_timing),
                     prof_eq ? "yes" : "NO", bits_eq ? "yes" : "NO"});
      if (in_gate)
        gate_table.add_row({std::to_string(n), name,
                            fmt_double(full->profile.latency, 1),
                            prof_eq ? "yes" : "NO", bits_eq ? "yes" : "NO",
                            t_timing > 0.0 ? fmt_double(t_warm / t_timing, 2) : "-"});
    }
  }
  bench::emit_table(table, "Fig 8 sweep, Full-mode host cost (GH200 fp16)");
  bench::run_report().set_meta("fig08_full_warm_ms_total",
                               fmt_double(warm_total * 1e3, 3));
  bench::run_report().set_meta("fig08_equivalence", sweep_ok ? "yes" : "NO");
  if (gate != nullptr) gate->add_table("Full-mode data plane gate", gate_table);
}

/// One square baseline point for baselines_full_cost: Full and TimingOnly
/// host time, with the Full profile checked against TimingOnly and the Full
/// C against reference_gemm, bit for bit.
template <Scalar T, typename Gemm>
void baseline_point(TablePrinter& table, const std::string& kernel,
                    const sim::DeviceSpec& dev, std::size_t n, Gemm&& gemm) {
  const std::string prec = precision_name(num_traits<T>::precision);
  Rng rng(n);
  const auto A = random_matrix<T>(n, n, rng);
  const auto B = random_matrix<T>(n, n, rng);
  const auto full = gemm(dev, A, B, sim::ExecMode::Full);
  if (!full.feasible) {
    g_equivalence_ok = false;
    table.add_row({kernel, dev.name, prec, std::to_string(n), "-", "-", "-", "NO", "NO"});
    return;
  }
  const auto timing = gemm(dev, A, B, sim::ExecMode::TimingOnly);
  const double t_full = seconds_per_call([&] {
    benchmark::DoNotOptimize(gemm(dev, A, B, sim::ExecMode::Full).C.data());
  });
  const double t_timing = seconds_per_call([&] {
    benchmark::DoNotOptimize(gemm(dev, A, B, sim::ExecMode::TimingOnly).profile.latency);
  });
  const bool prof_eq = verify::profile_diff(timing.profile, full.profile).empty();
  const bool ref_eq = bits_identical(full.C, baselines::reference_gemm(A, B));
  if (!prof_eq || !ref_eq) g_equivalence_ok = false;
  table.add_row({kernel, dev.name, prec, std::to_string(n), ms(t_full), ms(t_timing),
                 ratio(t_full, t_timing), prof_eq ? "yes" : "NO", ref_eq ? "yes" : "NO"});
}

/// Full-mode host cost of the block baselines Fig 8 compares against: their
/// operand staging and (for CUTLASS-like, whose fixed tile pads small
/// problems) the host multiplies behind each simulated MMA. full/timing is
/// what the data plane costs on top of the timing model. --smoke keeps the
/// orders <= 64; any "NO" fails the binary's exit code.
void baselines_full_cost(bool smoke) {
  TablePrinter table({"kernel", "device", "precision", "order", "full (ms)", "timing (ms)",
                      "full/timing", "profile==timing", "C==reference"});
  const auto cutlass = [](const sim::DeviceSpec& dev, const auto& A, const auto& B,
                          sim::ExecMode mode) {
    return baselines::cutlass_gemm(dev, A, B, false, nullptr, mode);
  };
  const auto cublasdx = [](const sim::DeviceSpec& dev, const auto& A, const auto& B,
                           sim::ExecMode mode) {
    return baselines::cublasdx_gemm(dev, A, B, 4, false, mode);
  };
  const auto syclbench = [](const sim::DeviceSpec& dev, const auto& A, const auto& B,
                            sim::ExecMode mode) {
    return baselines::syclbench_gemm(dev, A, B, 4, false, mode);
  };
  for (const std::size_t n : {16u, 64u, 192u})
    if (!smoke || n <= 64)
      baseline_point<fp16_t>(table, "CUTLASS-like", sim::gh200(), n, cutlass);
  if (!smoke)
    baseline_point<fp8_e4m3_t>(table, "CUTLASS-like", sim::rtx5090(), 256, cutlass);
  for (const std::size_t n : {64u, 128u})
    if (!smoke || n <= 64)
      baseline_point<fp16_t>(table, "cuBLASDx-like", sim::gh200(), n, cublasdx);
  for (const std::size_t n : {64u, 128u})
    if (!smoke || n <= 64)
      baseline_point<fp16_t>(table, "SYCL-Bench-like", sim::intel_max1100(), n,
                             syclbench);
  bench::emit_table(table, "Baselines, Full-mode host cost");
}

/// Pre-split autotune (per-candidate Full on random operands) vs the cached
/// TimingOnly path.
void autotune_comparison() {
  const auto& dev = sim::gh200();
  const std::size_t n = 64;

  // The pre-split path: every candidate runs a Full simulation, arithmetic
  // included, on random operands.
  const auto legacy = [&] {
    Rng rng(42);
    const auto A = random_matrix<fp16_t>(n, n, rng);
    const auto B = random_matrix<fp16_t>(n, n, rng);
    double best = 0.0;
    for (const auto& cand : core::default_candidates()) {
      GemmOptions opt;
      opt.warps = cand.warps;
      opt.smem_ratio = cand.smem_ratio;
      try {
        const auto r = gemm(cand.algo, dev, A, B, opt);
        const double t = sim::throughput_tflops(dev, r.profile, bench::kBlocks);
        if (t > best) best = t;
      } catch (const PreconditionError&) {
      }
    }
    return best;
  };

  const double legacy_tflops = legacy();
  const double t_legacy = seconds_per_call([&] { benchmark::DoNotOptimize(legacy()); });
  const double t_cold = seconds_per_call([&] {
    core::ProfileCache::global().clear();
    benchmark::DoNotOptimize(core::autotune_gemm<fp16_t>(dev, n, n, n).tflops);
  });
  const auto tuned = core::autotune_gemm<fp16_t>(dev, n, n, n);  // prime the cache
  const double t_warm = seconds_per_call([&] {
    benchmark::DoNotOptimize(core::autotune_gemm<fp16_t>(dev, n, n, n).tflops);
  });

  TablePrinter table({"path", "time (ms)", "speedup vs pre-split", "winner TFLOPS"});
  table.add_row({"pre-split (Full per candidate)", ms(t_legacy), "1.0x",
                 fmt_double(legacy_tflops, 2)});
  table.add_row({"cached TimingOnly, cold", ms(t_cold), ratio(t_legacy, t_cold),
                 fmt_double(tuned.tflops, 2)});
  table.add_row({"cached TimingOnly, warm", ms(t_warm), ratio(t_legacy, t_warm),
                 fmt_double(tuned.tflops, 2)});
  bench::emit_table(table, "Autotune (fp16 64x64x64, full candidate grid)");
  record_speedup("autotune_cold_speedup", t_legacy, t_cold);
  record_speedup("autotune_warm_speedup", t_legacy, t_warm);
  if (tuned.tflops != legacy_tflops)
    std::cout << "WARNING: cached winner " << tuned.tflops << " != pre-split winner "
              << legacy_tflops << "\n";
}

/// Pre-split batched execution (per-entry Full) vs the fast path.
void batched_comparison(std::size_t batch) {
  const auto& dev = sim::gh200();
  const std::size_t orders[] = {16, 32, 48};  // 3 distinct shapes in the batch
  std::vector<Matrix<fp16_t>> As, Bs;
  Rng rng(7);
  for (std::size_t i = 0; i < batch; ++i) {
    const std::size_t o = orders[i % 3];
    As.push_back(random_matrix<fp16_t>(o, o, rng));
    Bs.push_back(random_matrix<fp16_t>(o, o, rng));
  }

  // The pre-split loop: one Full simulation per entry, I/O charged.
  const auto legacy = [&] {
    GemmOptions opt;
    opt.charge_global_io = true;
    std::vector<Matrix<fp16_t>> Cs;
    Cs.reserve(As.size());
    for (std::size_t i = 0; i < As.size(); ++i)
      Cs.push_back(gemm(Algo::OneD, dev, As[i], Bs[i], opt).C);
    return Cs;
  };

  const auto legacy_C = legacy();
  const auto fast = core::kami_batched_gemm<fp16_t>(dev, As, Bs);
  bool identical = fast.C.size() == legacy_C.size();
  for (std::size_t i = 0; identical && i < legacy_C.size(); ++i)
    identical = bits_identical(fast.C[i], legacy_C[i]);

  const double t_legacy =
      seconds_per_call([&] { benchmark::DoNotOptimize(legacy().size()); });
  const double t_cold = seconds_per_call([&] {
    core::ProfileCache::global().clear();
    benchmark::DoNotOptimize(core::kami_batched_gemm<fp16_t>(dev, As, Bs).C.size());
  });
  const double t_warm = seconds_per_call([&] {
    benchmark::DoNotOptimize(core::kami_batched_gemm<fp16_t>(dev, As, Bs).C.size());
  });

  double batch_flops = 0.0;
  for (std::size_t i = 0; i < As.size(); ++i)
    batch_flops += model::gemm_flops(As[i].rows(), Bs[i].cols(), As[i].cols());

  TablePrinter table({"path", "time (ms)", "speedup vs pre-split", "host GFLOP/s",
                      "C bit-identical"});
  table.add_row({"pre-split (Full per entry)", ms(t_legacy), "1.0x",
                 gflops(batch_flops, t_legacy), "-"});
  table.add_row({"fast path, cold cache", ms(t_cold), ratio(t_legacy, t_cold),
                 gflops(batch_flops, t_cold), identical ? "yes" : "NO"});
  table.add_row({"fast path, warm cache", ms(t_warm), ratio(t_legacy, t_warm),
                 gflops(batch_flops, t_warm), identical ? "yes" : "NO"});
  bench::emit_table(table, "Batched GEMM, batch=" + std::to_string(batch) +
                               " (fp16 orders 16/32/48)");
  record_speedup("batched_cold_speedup", t_legacy, t_cold);
  record_speedup("batched_warm_speedup", t_legacy, t_warm);
  if (t_warm > 0.0)
    bench::run_report().set_meta("batched_warm_host_gflops",
                                 fmt_double(batch_flops / t_warm / 1e9, 2));
}

/// Raw cache lookup cost: one TimingOnly simulation vs a hit.
void cache_comparison() {
  const auto& dev = sim::gh200();
  auto& cache = core::ProfileCache::global();
  const double t_cold = seconds_per_call([&] {
    cache.clear();
    benchmark::DoNotOptimize(
        core::timing_profile<fp16_t>(cache, Algo::OneD, dev, 64, 64, 64).profile.latency);
  });
  (void)core::timing_profile<fp16_t>(cache, Algo::OneD, dev, 64, 64, 64);
  const double t_warm = seconds_per_call([&] {
    benchmark::DoNotOptimize(
        core::timing_profile<fp16_t>(cache, Algo::OneD, dev, 64, 64, 64).profile.latency);
  });

  TablePrinter table({"lookup", "time (ms)", "speedup"});
  table.add_row({"cold (TimingOnly simulation + insert)", ms(t_cold), "1.0x"});
  table.add_row({"warm (LRU hit)", ms(t_warm), ratio(t_cold, t_warm)});
  bench::emit_table(table, "ProfileCache, 1D fp16 64x64x64");
}

void run_harness(bool smoke, const std::string& gate_path) {
  const std::size_t batch = smoke ? 12 : 120;
  bench::run_report().set_meta("smoke", smoke ? "1" : "0");
  // Host configuration: absolute GFLOP/s numbers are meaningless without the
  // compiler and SIMD mode that produced them.
  bench::run_report().set_meta("compiler", __VERSION__);
  bench::run_report().set_meta("build_type", KAMI_BUILD_TYPE);
  bench::run_report().set_meta("simd_mode", core::numeric_simd_name());
  bench::run_report().set_meta(
      "simd_lanes_f32", std::to_string(core::numeric_simd_lanes<float>()));
  bench::run_report().set_meta(
      "simd_lanes_f64", std::to_string(core::numeric_simd_lanes<double>()));
  obs::RunReport gate_report("sim_microbench_gate");
  obs::RunReport* gate = gate_path.empty() ? nullptr : &gate_report;
  mode_comparison();
  fig08_full_sweep(smoke, gate);
  baselines_full_cost(smoke);
  autotune_comparison();
  batched_comparison(batch);
  cache_comparison();
  if (gate != nullptr) {
    // `kami_prof diff` compares tables, not meta, so build-dependent values
    // here cannot trip the CI gate. It does read exact_columns from the
    // baseline report: the gate's logical columns, where any change fails
    // whatever --tolerance allows. Only full/timing, a host ratio, keeps
    // the tolerance.
    gate_report.set_meta("exact_columns", "order|latency (cycles)|profile==full|C==full");
    gate_report.set_meta("simd_mode", core::numeric_simd_name());
    gate_report.set_meta("smoke", smoke ? "1" : "0");
    std::ofstream os(gate_path);
    if (!os) {
      std::cerr << "sim_microbench: cannot open " << gate_path << " for writing\n";
      g_equivalence_ok = false;
    } else {
      gate_report.write_json(os);
    }
  }
}

}  // namespace
}  // namespace kami

int main(int argc, char** argv) {
  // `--gbench [args...]` hands the rest of the command line to
  // google-benchmark and runs the kernel microbenchmarks instead.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gbench") {
      std::vector<char*> bargv{argv[0]};
      for (int j = i + 1; j < argc; ++j) bargv.push_back(argv[j]);
      int bargc = static_cast<int>(bargv.size());
      benchmark::Initialize(&bargc, bargv.data());
      if (benchmark::ReportUnrecognizedArguments(bargc, bargv.data())) return 1;
      benchmark::RunSpecifiedBenchmarks();
      return 0;
    }
  }

  // `--smoke` and `--gate <path>` are ours; everything else goes through to
  // bench_main (which rejects unknown flags).
  bool smoke = false;
  std::string gate_path;
  std::vector<char*> fargv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else if (arg == "--gate" && i + 1 < argc)
      gate_path = argv[++i];
    else
      fargv.push_back(argv[i]);
  }
  const int rc = kami::bench::bench_main(static_cast<int>(fargv.size()), fargv.data(),
                                         "sim_microbench",
                                         [&] { kami::run_harness(smoke, gate_path); });
  if (rc != 0) return rc;
  if (!kami::g_equivalence_ok) {
    std::cerr << "sim_microbench: equivalence check failed (see NO cells above)\n";
    return 1;
  }
  return 0;
}
