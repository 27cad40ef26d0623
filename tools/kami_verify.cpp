// kami_verify: the differential correctness harness (src/verify) as a CLI.
//
//   kami_verify --smoke [--json out.json]  curated cross-mode/reference points
//                                          + invariant-layer self-test; exports
//                                          a kami.obs.run report with --json
//   kami_verify fuzz [--seed S] [--iters N] [--threads W] [--json out.json]
//                                          randomized points seeded S, S+1, ...
//   kami_verify repro <seed>               replay exactly one fuzz iteration
//   kami_verify corpus <file>...           run point-per-line regression files
//                                          (tests/verify/corpus/*.txt)
//   kami_verify model [--seed S] [--iters N] [--threads W] [--json out.json]
//                    [--corpus file...]    analytic-model divergence check:
//                                          self-calibrated closed-form
//                                          prediction vs TimingOnly simulation
//                                          (typed ModelDivergence on failure);
//                                          fuzz seeds share random_point, so
//                                          `model --seed S --iters 1` replays
//                                          one iteration
//
// Exit status is nonzero when any point fails; skipped points (infeasible or
// unsupported configurations that every mode rejects identically) pass.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "parse_count.hpp"
#include "util/table.hpp"
#include "verify/differential.hpp"
#include "verify/model_check.hpp"

namespace {

using kami::TablePrinter;
using kami::verify::CheckPoint;
using kami::verify::CheckResult;

int usage() {
  std::cerr << "usage:\n"
            << "  kami_verify --smoke [--json out.json]\n"
            << "  kami_verify fuzz [--seed S] [--iters N] [--threads W] [--json out.json]\n"
            << "  kami_verify repro <seed>\n"
            << "  kami_verify corpus <file>...\n"
            << "  kami_verify model [--seed S] [--iters N] [--threads W]"
               " [--json out.json] [--corpus file...]\n";
  return 2;
}

void write_report(const kami::obs::RunReport& report, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw kami::PreconditionError("cannot open " + path + " for writing");
  report.write_json(os);
  std::cout << "wrote " << path << "\n";
}

const char* status_name(const CheckResult& r) {
  return !r.ok ? "FAIL" : (r.skipped ? "skip" : "pass");
}

/// Run a list of points through `check` (the differential checker by
/// default), print the verdict table, return the failure count.
std::size_t run_points(const std::string& title, const std::vector<CheckPoint>& points,
                       TablePrinter& table,
                       CheckResult (*check)(const CheckPoint&) = kami::verify::check_point) {
  std::size_t failures = 0;
  for (const CheckPoint& p : points) {
    CheckResult r;
    try {
      r = check(p);
    } catch (const std::exception& e) {
      r = CheckResult{false, false, std::string("exception: ") + e.what()};
    }
    if (!r.ok) ++failures;
    table.add_row({kami::verify::to_string(p), status_name(r), r.detail});
  }
  table.print(std::cout, title);
  return failures;
}

std::vector<CheckPoint> load_corpus(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw kami::PreconditionError("cannot open " + path);
  std::vector<CheckPoint> points;
  std::string line;
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    points.push_back(kami::verify::point_from_string(line));
  }
  return points;
}

int cmd_smoke(const std::string& json_path) {
  TablePrinter table({"point", "status", "detail"});
  std::size_t failures = run_points("kami_verify --smoke", kami::verify::smoke_points(), table);

  const std::string selftest = kami::verify::invariant_selftest();
  std::cout << "invariant self-test: " << (selftest.empty() ? "pass" : selftest) << "\n";
  if (!selftest.empty()) ++failures;

  if (!json_path.empty()) {
    kami::obs::RunReport report("kami_verify");
    report.set_meta("mode", "smoke");
    report.set_meta("points", std::to_string(kami::verify::smoke_points().size()));
    report.set_meta("failures", std::to_string(failures));
    report.set_meta("invariant_selftest", selftest.empty() ? "pass" : selftest);
    report.add_table("kami_verify --smoke", table);
    report.set_metrics(kami::obs::MetricRegistry::global());
    write_report(report, json_path);
  }
  std::cout << (failures == 0 ? "OK" : "FAILED") << " (" << kami::verify::smoke_points().size()
            << " points, " << failures << " failures)\n";
  return failures == 0 ? 0 : 1;
}

int cmd_fuzz(std::uint64_t seed, std::size_t iters, int threads,
             const std::string& json_path) {
  const kami::verify::FuzzReport rep = kami::verify::run_fuzz(seed, iters, threads);
  TablePrinter table({"seed", "detail"});
  for (const auto& f : rep.failures) table.add_row({std::to_string(f.seed), f.detail});
  if (!rep.failures.empty()) table.print(std::cout, "fuzz failures");

  if (!json_path.empty()) {
    kami::obs::RunReport report("kami_verify");
    report.set_meta("mode", "fuzz");
    report.set_meta("base_seed", std::to_string(seed));
    report.set_meta("threads", std::to_string(threads));
    report.set_meta("ran", std::to_string(rep.ran));
    report.set_meta("passed", std::to_string(rep.passed));
    report.set_meta("skipped", std::to_string(rep.skipped));
    report.set_meta("failures", std::to_string(rep.failures.size()));
    report.add_table("fuzz failures", table);
    report.set_metrics(kami::obs::MetricRegistry::global());
    write_report(report, json_path);
  }
  std::cout << (rep.failures.empty() ? "OK" : "FAILED") << " (ran " << rep.ran
            << ", passed " << rep.passed << ", skipped " << rep.skipped << ", failed "
            << rep.failures.size() << ")\n"
            << "replay any failure with: kami_verify repro <seed>\n";
  return rep.failures.empty() ? 0 : 1;
}

int cmd_repro(std::uint64_t seed) {
  const CheckPoint p = kami::verify::random_point(seed);
  std::cout << "seed " << seed << " -> " << kami::verify::to_string(p) << "\n";
  const CheckResult r = kami::verify::check_point(p);
  std::cout << status_name(r);
  if (!r.detail.empty()) std::cout << ": " << r.detail;
  std::cout << "\n";
  return r.ok ? 0 : 1;
}

int cmd_corpus(const std::vector<std::string>& files) {
  std::size_t failures = 0;
  for (const std::string& path : files) {
    TablePrinter table({"point", "status", "detail"});
    failures += run_points(path, load_corpus(path), table);
  }
  std::cout << (failures == 0 ? "OK" : "FAILED") << " (" << failures << " failures)\n";
  return failures == 0 ? 0 : 1;
}

int cmd_model(std::uint64_t seed, std::size_t iters, int threads,
              const std::string& json_path, const std::vector<std::string>& corpus) {
  // Curated corpus points first (the fuzz corpus shares the point grammar, so
  // the same regression files exercise both checkers), then the fuzz sweep.
  std::size_t corpus_failures = 0;
  std::size_t corpus_points = 0;
  for (const std::string& path : corpus) {
    const std::vector<CheckPoint> points = load_corpus(path);
    corpus_points += points.size();
    TablePrinter table({"point", "status", "detail"});
    corpus_failures +=
        run_points("model: " + path, points, table, kami::verify::check_model_point);
  }

  const kami::verify::FuzzReport rep =
      kami::verify::run_model_fuzz(seed, iters, threads);
  TablePrinter table({"seed", "detail"});
  for (const auto& f : rep.failures) table.add_row({std::to_string(f.seed), f.detail});
  if (!rep.failures.empty()) table.print(std::cout, "model divergences");

  const std::size_t failures = corpus_failures + rep.failures.size();
  if (!json_path.empty()) {
    kami::obs::RunReport report("kami_verify");
    report.set_meta("mode", "model");
    report.set_meta("base_seed", std::to_string(seed));
    report.set_meta("threads", std::to_string(threads));
    report.set_meta("ran", std::to_string(rep.ran + corpus_points));
    report.set_meta("passed", std::to_string(rep.passed));
    report.set_meta("skipped", std::to_string(rep.skipped));
    report.set_meta("failures", std::to_string(failures));
    report.add_table("model divergences", table);
    report.set_metrics(kami::obs::MetricRegistry::global());
    write_report(report, json_path);
  }
  std::cout << (failures == 0 ? "OK" : "FAILED") << " (fuzz ran " << rep.ran
            << ", passed " << rep.passed << ", skipped " << rep.skipped << ", corpus "
            << corpus_points << ", failed " << failures << ")\n"
            << "replay any fuzz divergence with: kami_verify model --seed <seed>"
               " --iters 1\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using kami::tools::parse_count;
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    if (args[0] == "--smoke" || args[0] == "smoke") {
      std::string json_path;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--json" && i + 1 < args.size()) json_path = args[++i];
        else return usage();
      }
      return cmd_smoke(json_path);
    }
    if (args[0] == "fuzz") {
      std::uint64_t seed = 1;
      std::size_t iters = 25;
      int threads = 0;  // 0 = defer to KAMI_THREADS
      std::string json_path;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--seed" && i + 1 < args.size())
          seed = parse_count<std::uint64_t>(args[++i]);
        else if (args[i] == "--iters" && i + 1 < args.size())
          iters = parse_count<std::size_t>(args[++i]);
        else if (args[i] == "--threads" && i + 1 < args.size())
          threads = parse_count<int>(args[++i]);
        else if (args[i] == "--json" && i + 1 < args.size()) json_path = args[++i];
        else return usage();
      }
      return cmd_fuzz(seed, iters, threads, json_path);
    }
    if (args[0] == "repro") {
      if (args.size() != 2) return usage();
      return cmd_repro(parse_count<std::uint64_t>(args[1]));
    }
    if (args[0] == "corpus") {
      if (args.size() < 2) return usage();
      return cmd_corpus({args.begin() + 1, args.end()});
    }
    if (args[0] == "model") {
      std::uint64_t seed = 1;
      std::size_t iters = 15;
      int threads = 0;  // 0 = defer to KAMI_THREADS
      std::string json_path;
      std::vector<std::string> corpus;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--seed" && i + 1 < args.size())
          seed = parse_count<std::uint64_t>(args[++i]);
        else if (args[i] == "--iters" && i + 1 < args.size())
          iters = parse_count<std::size_t>(args[++i]);
        else if (args[i] == "--threads" && i + 1 < args.size())
          threads = parse_count<int>(args[++i]);
        else if (args[i] == "--json" && i + 1 < args.size()) json_path = args[++i];
        else if (args[i] == "--corpus") {
          while (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0)
            corpus.push_back(args[++i]);
        } else return usage();
      }
      return cmd_model(seed, iters, threads, json_path, corpus);
    }
  } catch (const kami::tools::BadCount& bad) {
    std::cerr << "kami_verify: malformed count \"" << bad.text << "\"\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "kami_verify: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
