// kami_perfbench: one workload run, or the host probe.
//
//   kami_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <path>] [--peak-f32 <gflops>] [--peak-f64 <gflops>]
//   kami_perfbench --probe
//
// Prints one JSON line: attempted/failed ops, check failures, and every
// metric the run measured (run.py selects and formats them). Exit status is
// 0 when the run completed, 2 on bad arguments, 1 on an exception.
#include <sys/resource.h>

#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: kami_perfbench --workload <sweep_full|serve_fit|serve_burst|"
               "tune_grid> --seed <n> --seconds <s> --trace <0|1>\n"
               "                      [--trace-out <path>] [--peak-f32 <gflops>] "
               "[--peak-f64 <gflops>]\n"
               "       kami_perfbench --probe\n";
  return 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

kami::obs::Json object_of(const std::map<std::string, double>& m) {
  kami::obs::Json o = kami::obs::Json::object();
  for (const auto& [k, v] : m) o.set(k, v);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool probe = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--probe") probe = true;
      else if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = value() == "1";
      else if (arg == "--trace-out") opt.trace_path = value();
      else if (arg == "--peak-f32") opt.peak_gflops_f32 = std::stod(value());
      else if (arg == "--peak-f64") opt.peak_gflops_f64 = std::stod(value());
      else return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "kami_perfbench: " << e.what() << "\n";
    return usage();
  }
  try {
    if (probe) {
      const ProbeResult p = run_probe();
      std::cout << object_of({{"f32_gflops", p.f32_gflops},
                              {"f64_gflops", p.f64_gflops},
                              {"triad_gbs", p.triad_gbs}})
                       .dump()
                << "\n";
      return 0;
    }
    if (!(opt.seconds > 0.0)) return usage();

    Tracer tracer;
    Tracer* t = opt.trace ? &tracer : nullptr;
    Report report;
    if (opt.workload == "sweep_full") report = run_sweep_full(opt, t);
    else if (opt.workload == "serve_fit") report = run_serve_fit(opt, t);
    else if (opt.workload == "serve_burst") report = run_serve_burst(opt, t);
    else if (opt.workload == "tune_grid") report = run_tune_grid(opt, t);
    else return usage();

    report.metrics["peak_rss_mb"] = peak_rss_mb();
    report.metrics["ok_pct"] =
        report.attempted ? 100.0 * static_cast<double>(report.ok) /
                               static_cast<double>(report.attempted)
                         : 0.0;
    if (t) {
      if (opt.trace_path.empty()) throw std::invalid_argument("--trace 1 needs --trace-out");
      tracer.write_json(opt.trace_path,
                        {{"workload", opt.workload}, {"seed", std::to_string(opt.seed)}},
                        [&] {
                          auto all = report.metrics;
                          all.insert(report.context.begin(), report.context.end());
                          return all;
                        }());
    }
    for (const std::string& p : report.known_defects)
      std::cerr << "known defect reproduced: " << p << "\n";
    for (const std::string& p : report.problems) std::cerr << "check failed: " << p << "\n";

    std::ostringstream digest;
    digest << std::hex << report.input_digest;
    kami::obs::Json out = kami::obs::Json::object();
    out.set("attempted", report.attempted);
    out.set("failed", report.failed);
    out.set("problems", report.problems.size());
    out.set("known_defects", report.known_defects.size());
    out.set("input_digest", digest.str());
    out.set("metrics", object_of(report.metrics));
    out.set("context", object_of(report.context));
    std::cout << out.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "kami_perfbench: " << e.what() << "\n";
    return 1;
  }
}
