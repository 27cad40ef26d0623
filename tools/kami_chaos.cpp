// kami_chaos: the serving layer's chaos campaign (src/serve/chaos.hpp) as a
// CLI.
//
//   kami_chaos [--points N] [--seed S] [--threads W] [--json out.json]
//              [--flight out.json]
//   kami_chaos --smoke [...]                 120-point campaign for CI
//
// Each point serves a randomized GEMM request through a fresh FleetServer —
// a one-device fleet of the point's own device, or the four Table-3 devices
// — under randomized adversity: injected transient/permanent faults,
// allocation failures, cycle deadlines, execution modes, device blackouts,
// router-misprediction skew, and queue-overflow storms. It checks the
// resilience contract: bit-correct result or typed error — never a crash,
// hang, lost request, or silent corruption — plus failover bit-identity,
// probe recovery, and a byte-identical replay of the whole scenario. Exit
// status is nonzero when any point violates the contract.
//
// Points are independent, so the campaign fans out across --threads workers
// with a bit-identical report.
//
// Every request is traced into a flight recorder (typed-error traces are
// always retained; ok traces ride a bounded ring). --flight writes the
// recorder dump (kami.obs.flight JSON, readable by kami_trace); when the
// campaign finds contract violations and no --flight path was given, the
// dump is auto-written to kami_chaos_flight.json so the evidence survives.
// The --json run report carries a per-shape-class `slo` section
// (kami.obs.run v2) with latency percentiles and deadline attainment.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "parse_count.hpp"
#include "serve/chaos.hpp"
#include "serve/slo.hpp"
#include "util/table.hpp"

namespace {

using kami::TablePrinter;

int usage() {
  std::cerr << "usage:\n"
            << "  kami_chaos [--points N] [--seed S] [--threads W] [--json out.json]\n"
            << "             [--flight out.json]\n"
            << "  kami_chaos --smoke [--seed S] [--threads W] [--json out.json]\n"
            << "             [--flight out.json]\n";
  return 2;
}

void write_report(const kami::obs::RunReport& report, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw kami::PreconditionError("cannot open " + path + " for writing");
  report.write_json(os);
  std::cout << "wrote " << path << "\n";
}

TablePrinter count_table(const std::map<std::string, std::size_t>& counts) {
  TablePrinter table({"key", "points"});
  for (const auto& [key, count] : counts) table.add_row({key, std::to_string(count)});
  return table;
}

void write_flight(const kami::obs::FlightRecorder& flight, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw kami::PreconditionError("cannot open " + path + " for writing");
  flight.dump(os);
  std::cout << "wrote flight recorder dump " << path << " (" << flight.size()
            << " traces, " << flight.error_count() << " errors)\n";
}

int run(std::uint64_t seed, std::size_t points, int threads, const std::string& json_path,
        const std::string& flight_path) {
  // The recorder and SLO tracker are always on: the whole point of a flight
  // recorder is that the evidence already exists when a violation appears.
  const auto flight = std::make_shared<kami::obs::FlightRecorder>();
  const auto slo = std::make_shared<kami::serve::SloTracker>();
  const kami::serve::ChaosReport rep =
      kami::serve::run_campaign(seed, points, threads, flight, slo);

  TablePrinter fleets = count_table(rep.by_fleet);
  fleets.print(std::cout, "fleet size");
  TablePrinter rungs = count_table(rep.by_rung);
  rungs.print(std::cout, "served by rung");
  if (!rep.by_code.empty()) {
    TablePrinter codes = count_table(rep.by_code);
    codes.print(std::cout, "typed errors by code");
  }
  TablePrinter devices = count_table(rep.by_device);
  devices.print(std::cout, "served by device");
  TablePrinter faults = count_table(rep.by_fault);
  faults.print(std::cout, "injected faults");

  TablePrinter violations({"seed", "point", "detail"});
  for (const auto& v : rep.violations)
    violations.add_row({std::to_string(v.seed), v.point, v.detail});
  if (!rep.violations.empty()) violations.print(std::cout, "contract violations");

  if (!json_path.empty()) {
    kami::obs::RunReport report("kami_chaos");
    report.set_meta("base_seed", std::to_string(seed));
    report.set_meta("threads", std::to_string(threads));
    report.set_meta("ran", std::to_string(rep.ran));
    report.set_meta("served_ok", std::to_string(rep.served_ok));
    report.set_meta("typed_errors", std::to_string(rep.typed_errors));
    report.set_meta("failovers", std::to_string(rep.failovers));
    report.set_meta("hedged", std::to_string(rep.hedged));
    report.set_meta("storm_requests", std::to_string(rep.storm_requests));
    report.set_meta("storm_rejected", std::to_string(rep.storm_rejected));
    report.set_meta("violations", std::to_string(rep.violations.size()));
    report.add_table("fleet size", fleets);
    report.add_table("served by rung", rungs);
    report.add_table("served by device", devices);
    report.add_table("injected faults", faults);
    report.add_table("contract violations", violations);
    report.set_metrics(kami::obs::MetricRegistry::global());
    report.set_slo(slo->to_json());
    write_report(report, json_path);
  }

  if (!flight_path.empty()) {
    write_flight(*flight, flight_path);
  } else if (!rep.clean()) {
    // Violations with no dump destination: auto-dump so the traces that
    // explain the failure are not lost with the process.
    write_flight(*flight, "kami_chaos_flight.json");
  }

  std::cout << (rep.clean() ? "OK" : "FAILED") << " (ran " << rep.ran << ", served "
            << rep.served_ok << ", typed errors " << rep.typed_errors << ", failovers "
            << rep.failovers << ", hedged " << rep.hedged << ", storm "
            << rep.storm_requests << " (" << rep.storm_rejected
            << " rejected), violations " << rep.violations.size() << ")\n"
            << "replay any seed with: kami_chaos --seed <s> --points 1\n";
  return rep.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using kami::tools::parse_count;
  const std::vector<std::string> args(argv + 1, argv + argc);
  std::uint64_t seed = 1;
  std::size_t points = 500;
  int threads = 0;  // 0 = defer to KAMI_THREADS
  std::string json_path;
  std::string flight_path;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--points" && i + 1 < args.size())
        points = parse_count<std::size_t>(args[++i]);
      else if (args[i] == "--seed" && i + 1 < args.size())
        seed = parse_count<std::uint64_t>(args[++i]);
      else if (args[i] == "--threads" && i + 1 < args.size())
        threads = parse_count<int>(args[++i]);
      else if (args[i] == "--json" && i + 1 < args.size()) json_path = args[++i];
      else if (args[i] == "--flight" && i + 1 < args.size()) flight_path = args[++i];
      else if (args[i] == "--smoke") points = 120;
      else return usage();
    }
    return run(seed, points, threads, json_path, flight_path);
  } catch (const kami::tools::BadCount& bad) {
    std::cerr << "kami_chaos: malformed count \"" << bad.text << "\"\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "kami_chaos: " << e.what() << "\n";
    return 1;
  }
}
