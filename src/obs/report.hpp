// RunReport: the machine-readable artifact of one benchmark or profiling
// run — the tables a binary printed, structured cycle breakdowns, and a
// metric snapshot — with a stable, versioned JSON schema ("kami.obs.run",
// version 2) so exported runs can be reloaded, reprinted, and diffed by
// `tools/kami_prof` long after the code that produced them has changed.
//
// Schema v2 (all sections except schema/schema_version/name are optional):
//   {
//     "schema": "kami.obs.run",
//     "schema_version": 2,
//     "name": "<binary or experiment name>",
//     "meta": {"key": "value", ...},
//     "tables": [{"title": str, "headers": [str], "rows": [[str]]}],
//     "breakdowns": [{"name": str,
//                     "categories": [{"name": str, "cycles": num}]}],
//     "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
//     "slo": {"classes": [{"class": str, "requests": num, ...,
//                          "latency_cycles": {count, mean, p50, p90, p99,
//                          max}}]}   (v2; serve::SloTracker::to_json)
//   }
// v2 adds the optional "slo" section (per-shape-class SLO attainment from
// the serving layer); v1 documents, which simply lack it, still load.
// Readers skip keys they do not know, so documents that still carry the
// retired "regions" or "utilization" sections load too.
// Table cells are stored as the exact strings the text table printed, so a
// reload reproduces the human output byte for byte.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace kami {
class TablePrinter;  // util/table.hpp
}

namespace kami::obs {

inline constexpr const char* kRunSchemaName = "kami.obs.run";
inline constexpr int kRunSchemaVersion = 2;
/// Oldest schema_version from_json still accepts (v1 = everything but slo).
inline constexpr int kRunSchemaMinVersion = 1;

/// Thrown when a loaded document is not a valid kami.obs.run of a known
/// version.
class SchemaError : public kami::PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

struct ReportTable {
  std::string title;
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

/// One named cycle breakdown (e.g. "GH200/FP16/n=64/KAMI-2D"); category
/// order is preserved so Fig 15's column order survives the round trip.
struct Breakdown {
  std::string name;
  std::vector<std::pair<std::string, double>> categories;

  const double* find(std::string_view category) const noexcept {
    for (const auto& [k, v] : categories)
      if (k == category) return &v;
    return nullptr;
  }
};

class RunReport {
 public:
  explicit RunReport(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  void set_meta(std::string key, std::string value);
  const std::vector<std::pair<std::string, std::string>>& meta() const noexcept {
    return meta_;
  }

  void add_table(ReportTable table) { tables_.push_back(std::move(table)); }
  /// Capture a printed table verbatim (title + the exact cell strings).
  void add_table(const std::string& title, const TablePrinter& table);
  const std::vector<ReportTable>& tables() const noexcept { return tables_; }

  void add_breakdown(Breakdown b) { breakdowns_.push_back(std::move(b)); }
  const std::vector<Breakdown>& breakdowns() const noexcept { return breakdowns_; }
  const Breakdown* find_breakdown(std::string_view name) const noexcept;

  void set_metrics(const MetricRegistry& registry) { metrics_ = registry.to_json(); }
  const Json& metrics() const noexcept { return metrics_; }

  /// Per-shape-class SLO accounting (v2); pass serve::SloTracker::to_json().
  void set_slo(Json slo) { slo_ = std::move(slo); }
  const Json& slo() const noexcept { return slo_; }

  Json to_json() const;
  static RunReport from_json(const Json& doc);

  void write_json(std::ostream& os) const;
  /// All tables and breakdowns as CSV, sections separated by `# <title>`.
  void write_csv(std::ostream& os) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<ReportTable> tables_;
  std::vector<Breakdown> breakdowns_;
  Json metrics_;  // null when never set
  Json slo_;      // null when never set (v2 section)
};

}  // namespace kami::obs
