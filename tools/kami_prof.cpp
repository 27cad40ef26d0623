// kami_prof: load an exported kami.obs.run JSON file and report on it.
//
//   kami_prof report <run.json>            print tables (verbatim), breakdowns
//                                          and metrics
//   kami_prof diff <a.json> <b.json> [--tolerance <pct>]
//                                          numeric deltas between two runs;
//                                          with --tolerance, exit nonzero when
//                                          any numeric delta exceeds <pct>
//                                          percent (non-numeric diffs always
//                                          count as out of tolerance); <pct>
//                                          is a non-negative decimal, and
//                                          anything else prints usage
//                                          (exit 2). Columns that <a> names
//                                          in its "exact_columns" meta key
//                                          (names joined by '|') gate with
//                                          zero tolerance: any change fails.
//   kami_prof validate <run.json> [--expect-fig15]
//                                          schema check; nonzero exit on failure
//
// Tables are stored in the report as the exact cell strings the bench binary
// printed, so `report` reproduces the original console tables byte for byte.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "parse_count.hpp"
#include "util/table.hpp"

namespace {

using kami::TablePrinter;
using kami::obs::Json;
using kami::obs::RunReport;

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw kami::PreconditionError("cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

RunReport load_run(const std::string& path) {
  return RunReport::from_json(Json::parse(read_file(path)));
}

/// Parse a table cell as a number; false for "-", "overflow", text cells.
bool cell_number(const std::string& cell, double* out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end != cell.c_str() + cell.size()) return false;
  *out = v;
  return true;
}

void cmd_report(const RunReport& run) {
  std::cout << "run: " << run.name() << "\n";
  for (const auto& [k, v] : run.meta()) std::cout << "  " << k << ": " << v << "\n";
  std::cout << "\n";

  for (const auto& t : run.tables()) {
    TablePrinter printer(t.headers);
    for (const auto& row : t.rows) printer.add_row(row);
    printer.print(std::cout, t.title);
    std::cout << "\n";
  }

  if (!run.breakdowns().empty()) {
    std::cout << "== Cycle breakdowns ==\n";
    for (const auto& b : run.breakdowns()) {
      std::cout << "  " << b.name << ":";
      for (const auto& [cat, cycles] : b.categories)
        std::cout << " " << cat << "=" << kami::obs::json_number(cycles);
      std::cout << "\n";
    }
    std::cout << "\n";
  }

  const Json& metrics = run.metrics();
  if (metrics.is_object()) {
    std::cout << "== Metrics ==\n";
    for (const char* section : {"counters", "gauges"}) {
      if (const Json* values = metrics.find(section)) {
        for (const auto& [name, v] : values->as_object())
          std::cout << "  " << name << " = " << kami::obs::json_number(v.as_number())
                    << "\n";
      }
    }
    if (const Json* hists = metrics.find("histograms")) {
      for (const auto& [name, h] : hists->as_object()) {
        std::cout << "  " << name << ": n=" << kami::obs::json_number(h.at("count").as_number())
                  << " mean="
                  << kami::obs::json_number(h.at("count").as_number() > 0
                                                ? h.at("sum").as_number() /
                                                      h.at("count").as_number()
                                                : 0.0)
                  << " p50=" << kami::obs::json_number(h.at("p50").as_number())
                  << " p99=" << kami::obs::json_number(h.at("p99").as_number()) << "\n";
      }
    }
    std::cout << "\n";
  }
}

/// Relative delta in percent; infinite when the baseline is zero and the
/// values differ (any change from zero blows every finite tolerance).
double pct_delta(double va, double vb) {
  if (va == vb) return 0.0;
  if (va == 0.0) return std::numeric_limits<double>::infinity();
  return 100.0 * std::abs(vb - va) / std::abs(va);
}

/// The table columns a report declares exact in its "exact_columns" meta key:
/// header names joined by '|'. A bench names its logical columns there
/// (simulated cycles, equivalence flags), which no host can move.
std::set<std::string> exact_columns(const RunReport& run) {
  std::set<std::string> cols;
  for (const auto& [key, value] : run.meta()) {
    if (key != "exact_columns") continue;
    std::istringstream names(value);
    for (std::string name; std::getline(names, name, '|');)
      if (!name.empty()) cols.insert(name);
  }
  return cols;
}

/// `tolerance` < 0: plain reporting diff (always exit 0). >= 0: regression
/// gate — numeric deltas within tolerance percent are reported but allowed;
/// out-of-tolerance numeric deltas, any change in a column the baseline `a`
/// declares exact, and every structural or non-numeric difference fail the
/// diff.
int cmd_diff(const RunReport& a, const RunReport& b, double tolerance) {
  const bool gating = tolerance >= 0.0;
  const std::set<std::string> exact = exact_columns(a);
  int differences = 0;
  int out_of_tolerance = 0;
  /// Account one numeric pair; returns the suffix to print after the delta.
  const auto check_numeric = [&](double va, double vb) -> const char* {
    if (!gating) return "";
    if (pct_delta(va, vb) <= tolerance) return "  [within tolerance]";
    ++out_of_tolerance;
    return "  [OUT OF TOLERANCE]";
  };
  const auto check_exact = [&]() -> const char* {
    if (!gating) return "";
    ++out_of_tolerance;
    return "  [OUT OF TOLERANCE: exact column]";
  };
  const auto check_non_numeric = [&] {
    if (gating) ++out_of_tolerance;
  };
  for (const auto& ta : a.tables()) {
    const kami::obs::ReportTable* tb = nullptr;
    for (const auto& t : b.tables())
      if (t.title == ta.title) {
        tb = &t;
        break;
      }
    if (tb == nullptr) {
      std::cout << "only in " << a.name() << ": table \"" << ta.title << "\"\n";
      ++differences;
      check_non_numeric();
      continue;
    }
    if (ta.rows.size() != tb->rows.size() || ta.headers != tb->headers) {
      std::cout << "table \"" << ta.title << "\": shape differs (" << ta.rows.size()
                << " vs " << tb->rows.size() << " rows)\n";
      ++differences;
      check_non_numeric();
      continue;
    }
    for (std::size_t r = 0; r < ta.rows.size(); ++r) {
      for (std::size_t c = 0; c < ta.rows[r].size() && c < tb->rows[r].size(); ++c) {
        const std::string& ca = ta.rows[r][c];
        const std::string& cb = tb->rows[r][c];
        if (ca == cb) continue;
        ++differences;
        double va = 0.0, vb = 0.0;
        const bool numeric = cell_number(ca, &va) && cell_number(cb, &vb);
        std::cout << "table \"" << ta.title << "\" row " << r << " [" << ta.headers[c]
                  << "]: " << ca << " -> " << cb;
        if (numeric && va != 0.0)
          std::cout << "  (" << kami::fmt_double(100.0 * (vb - va) / va, 1) << "%)";
        if (exact.contains(ta.headers[c])) std::cout << check_exact();
        else if (numeric) std::cout << check_numeric(va, vb);
        else check_non_numeric();
        std::cout << "\n";
      }
    }
  }
  for (const auto& t : b.tables()) {
    bool found = false;
    for (const auto& ta : a.tables()) found = found || ta.title == t.title;
    if (!found) {
      std::cout << "only in " << b.name() << ": table \"" << t.title << "\"\n";
      ++differences;
      check_non_numeric();
    }
  }

  for (const auto& ba : a.breakdowns()) {
    const auto* bb = b.find_breakdown(ba.name);
    if (bb == nullptr) continue;
    for (const auto& [cat, va] : ba.categories) {
      const double* vb = bb->find(cat);
      if (vb != nullptr && *vb != va) {
        ++differences;
        std::cout << "breakdown " << ba.name << " [" << cat
                  << "]: " << kami::obs::json_number(va) << " -> "
                  << kami::obs::json_number(*vb) << check_numeric(va, *vb) << "\n";
      }
    }
  }

  const auto counters_of = [](const RunReport& run) {
    std::vector<std::pair<std::string, double>> out;
    if (const Json* c = run.metrics().find("counters"))
      for (const auto& [name, v] : c->as_object()) out.emplace_back(name, v.as_number());
    return out;
  };
  const auto cb = counters_of(b);
  for (const auto& [name, va] : counters_of(a)) {
    for (const auto& [nb, vb] : cb) {
      if (nb == name && va != vb) {
        ++differences;
        std::cout << "counter " << name << ": " << kami::obs::json_number(va) << " -> "
                  << kami::obs::json_number(vb) << check_numeric(va, vb) << "\n";
      }
    }
  }

  if (differences == 0) std::cout << "runs are identical\n";
  else std::cout << differences << " difference(s)\n";
  if (gating) {
    if (out_of_tolerance > 0) {
      std::cout << out_of_tolerance << " difference(s) out of tolerance ("
                << kami::fmt_double(tolerance, 2) << "%)\n";
      return 1;
    }
    std::cout << "all differences within tolerance ("
              << kami::fmt_double(tolerance, 2) << "%)\n";
  }
  return 0;
}

int cmd_validate(const std::string& path, bool expect_fig15) {
  const RunReport run = load_run(path);  // throws SchemaError on bad schema
  std::cout << path << ": valid " << kami::obs::kRunSchemaName << " v"
            << kami::obs::kRunSchemaVersion << " (name: " << run.name() << ", "
            << run.tables().size() << " tables, " << run.breakdowns().size()
            << " breakdowns)\n";
  if (!expect_fig15) return 0;

  if (run.breakdowns().empty()) {
    std::cerr << "error: expected Fig 15 breakdowns, found none\n";
    return 1;
  }
  for (const char* cat :
       {"smem_comm", "gmem", "reg_copy", "compute", "sync_wait", "measured_total"}) {
    for (const auto& b : run.breakdowns()) {
      if (b.find(cat) == nullptr) {
        std::cerr << "error: breakdown \"" << b.name << "\" lacks category \"" << cat
                  << "\"\n";
        return 1;
      }
    }
  }
  bool fig15_table = false;
  for (const auto& t : run.tables())
    fig15_table = fig15_table || t.title.find("Fig 15") != std::string::npos;
  if (!fig15_table) {
    std::cerr << "error: no table titled like Fig 15\n";
    return 1;
  }
  std::cout << "Fig 15 categories present in all " << run.breakdowns().size()
            << " breakdowns\n";
  return 0;
}

int usage() {
  std::cerr << "usage: kami_prof report <run.json>\n"
               "       kami_prof diff <a.json> <b.json> [--tolerance <pct>]\n"
               "       kami_prof validate <run.json> [--expect-fig15]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "report") {
      cmd_report(load_run(argv[2]));
      return 0;
    }
    if (cmd == "diff") {
      if (argc < 4) return usage();
      double tolerance = -1.0;  // negative = reporting mode, never gates
      for (int i = 4; i < argc; ++i) {
        if (std::string(argv[i]) == "--tolerance" && i + 1 < argc)
          tolerance = kami::tools::parse_decimal(argv[++i]);
        else
          return usage();
      }
      return cmd_diff(load_run(argv[2]), load_run(argv[3]), tolerance);
    }
    if (cmd == "validate") {
      bool expect_fig15 = false;
      for (int i = 3; i < argc; ++i)
        if (std::string(argv[i]) == "--expect-fig15") expect_fig15 = true;
      return cmd_validate(argv[2], expect_fig15);
    }
  } catch (const kami::tools::BadCount&) {
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "kami_prof: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
