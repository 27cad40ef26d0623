// Parallel execution engine scaling: wall-clock of the three fan-out
// workloads (batched GEMM, autotune candidate sweep, chaos campaign) at
// 1/2/4/8 engine workers, with the determinism contract checked alongside
// every measurement — a worker count that changed a single bit would be a
// correctness bug, not a perf result.
//
// Numbers are honest for the machine that ran them: the `cpus` meta field
// records std::thread::hardware_concurrency(), and on a single-core host
// the parallel rows measure pure engine overhead (no speedup is physically
// available — see results/BENCH_parallel.json for the recorded run).
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/autotune.hpp"
#include "core/batched.hpp"
#include "core/profile_cache.hpp"
#include "serve/chaos.hpp"

namespace kami {
namespace {

constexpr int kReps = 5;
const int kWorkerCounts[] = {1, 2, 4, 8};

double min_seconds(const std::function<void()>& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

std::string fmt_ms(double seconds) { return fmt_double(seconds * 1e3, 2); }

template <Scalar T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// One measured workload: run(workers) executes it once; identical(workers)
/// reports whether its output bit-matches the serial run.
struct Workload {
  std::string name;
  std::function<void(int)> run;
  std::function<bool(int)> identical;
};

void measure(const Workload& w, TablePrinter& table) {
  double serial = 0.0;
  for (const int workers : kWorkerCounts) {
    const double best = min_seconds([&] { w.run(workers); });
    if (workers == 1) serial = best;
    const bool same = workers == 1 || w.identical(workers);
    table.add_row({w.name, std::to_string(workers), fmt_ms(best),
                   fmt_double(serial / best, 2) + "x", same ? "yes" : "NO"});
    bench::run_report().set_meta(
        w.name + ".workers" + std::to_string(workers) + ".ms", fmt_ms(best));
    if (!same)
      bench::run_report().set_meta(w.name + ".determinism", "VIOLATED at workers=" +
                                                                std::to_string(workers));
  }
}

void body() {
  const sim::DeviceSpec& dev = sim::gh200();
  bench::run_report().set_meta("cpus",
                               std::to_string(std::thread::hardware_concurrency()));
  bench::run_report().set_meta("reps", std::to_string(kReps));

  // Batched: 96 mixed-shape entries through the Full-mode fast path.
  std::vector<Matrix<fp16_t>> As, Bs;
  {
    Rng rng(7);
    const std::size_t shapes[][3] = {{32, 32, 32}, {64, 64, 64}, {48, 16, 64},
                                     {16, 48, 32}, {64, 32, 128}, {32, 64, 32}};
    for (std::size_t i = 0; i < 96; ++i) {
      const auto& s = shapes[i % std::size(shapes)];
      As.push_back(random_matrix<fp16_t>(s[0], s[2], rng));
      Bs.push_back(random_matrix<fp16_t>(s[2], s[1], rng));
    }
  }
  const auto run_batched = [&](int workers) {
    core::ProfileCache::global().clear();
    core::GemmOptions opt;
    opt.threads = workers;
    return core::kami_batched_gemm<fp16_t>(dev, As, Bs, core::Algo::OneD, opt);
  };
  const auto batched_serial = run_batched(1);

  // Autotune: the full default candidate grid at 128^3, cold cache per run.
  const auto run_autotune = [&](int workers) {
    core::ProfileCache::global().clear();
    return core::autotune_gemm<fp16_t>(dev, 128, 128, 128, bench::kBlocks,
                                       core::default_candidates(), workers);
  };
  const auto autotune_serial = run_autotune(1);

  // Chaos campaign: 120 replication-parallel points, fresh fleet each.
  const auto run_campaign = [&](int workers) {
    return serve::run_campaign(5, 120, workers);
  };
  const auto campaign_serial = run_campaign(1);

  const std::vector<Workload> workloads = {
      {"batched",
       [&](int w) { run_batched(w); },
       [&](int w) {
         const auto r = run_batched(w);
         if (r.seconds != batched_serial.seconds || r.tflops != batched_serial.tflops)
           return false;
         for (std::size_t i = 0; i < r.C.size(); ++i)
           if (!bits_equal(r.C[i], batched_serial.C[i])) return false;
         return true;
       }},
      {"autotune",
       [&](int w) { run_autotune(w); },
       [&](int w) {
         const auto r = run_autotune(w);
         return r.tflops == autotune_serial.tflops &&
                r.config.warps == autotune_serial.config.warps &&
                r.config.algo == autotune_serial.config.algo &&
                r.evaluated == autotune_serial.evaluated;
       }},
      {"campaign",
       [&](int w) { run_campaign(w); },
       [&](int w) {
         const auto r = run_campaign(w);
         return r.ran == campaign_serial.ran &&
                r.served_ok == campaign_serial.served_ok &&
                r.typed_errors == campaign_serial.typed_errors &&
                r.failovers == campaign_serial.failovers &&
                r.storm_rejected == campaign_serial.storm_rejected &&
                r.by_rung == campaign_serial.by_rung &&
                r.by_code == campaign_serial.by_code &&
                r.by_device == campaign_serial.by_device &&
                r.by_fleet == campaign_serial.by_fleet &&
                r.violations.size() == campaign_serial.violations.size();
       }}};

  TablePrinter table({"workload", "workers", "best ms", "speedup", "bit-identical"});
  for (const auto& w : workloads) measure(w, table);
  bench::emit_table(table, "engine scaling (min of " + std::to_string(kReps) +
                               " reps per cell)");
}

}  // namespace
}  // namespace kami

int main(int argc, char** argv) {
  return kami::bench::bench_main(argc, argv, "parallel_scaling", kami::body);
}
