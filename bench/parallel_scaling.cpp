// Parallel execution engine scaling: wall-clock of its two replication
// fan-outs (the chaos campaign and the differential fuzzer) at 1/2/4/8
// engine workers, with the determinism contract checked alongside every
// measurement — a worker count that changed a single bit would be a
// correctness bug, not a perf result. Library calls (a batch, an autotune
// sweep) are serial and have nothing to scale.
//
// Numbers are honest for the machine that ran them: the `cpus` meta field
// records std::thread::hardware_concurrency(), and on a single-core host
// the parallel rows measure pure engine overhead (no speedup is physically
// available — see results/BENCH_parallel.json for the recorded run).
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/chaos.hpp"
#include "verify/differential.hpp"

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
  bench::run_report().set_meta("cpus",
                               std::to_string(std::thread::hardware_concurrency()));
  bench::run_report().set_meta("reps", std::to_string(kReps));

  // Chaos campaign: 120 replication-parallel points, fresh fleet each.
  const auto run_campaign = [](int workers) {
    return serve::run_campaign(5, 120, workers);
  };
  const auto campaign_serial = run_campaign(1);

  // Differential fuzz: 120 independently seeded cross-mode check points.
  const auto run_fuzz = [](int workers) { return verify::run_fuzz(1, 120, workers); };
  const auto fuzz_serial = run_fuzz(1);

  const std::vector<Workload> workloads = {
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
       }},
      {"fuzz",
       [&](int w) { run_fuzz(w); },
       [&](int w) {
         const auto r = run_fuzz(w);
         if (r.ran != fuzz_serial.ran || r.passed != fuzz_serial.passed ||
             r.skipped != fuzz_serial.skipped ||
             r.failures.size() != fuzz_serial.failures.size())
           return false;
         for (std::size_t i = 0; i < r.failures.size(); ++i)
           if (r.failures[i].seed != fuzz_serial.failures[i].seed ||
               r.failures[i].detail != fuzz_serial.failures[i].detail)
             return false;
         return true;
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
