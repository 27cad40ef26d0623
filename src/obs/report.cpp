#include "obs/report.hpp"

#include <ostream>

#include "util/table.hpp"

namespace kami::obs {

void RunReport::set_meta(std::string key, std::string value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  meta_.emplace_back(std::move(key), std::move(value));
}

void RunReport::add_table(const std::string& title, const TablePrinter& table) {
  tables_.push_back(ReportTable{title, table.headers(), table.rows_data()});
}

const Breakdown* RunReport::find_breakdown(std::string_view name) const noexcept {
  for (const auto& b : breakdowns_)
    if (b.name == name) return &b;
  return nullptr;
}

Json RunReport::to_json() const {
  Json doc = Json::object();
  doc.set("schema", kRunSchemaName);
  doc.set("schema_version", kRunSchemaVersion);
  doc.set("name", name_);

  if (!meta_.empty()) {
    Json meta = Json::object();
    for (const auto& [k, v] : meta_) meta.set(k, v);
    doc.set("meta", std::move(meta));
  }

  if (!tables_.empty()) {
    Json tables = Json::array();
    for (const auto& t : tables_) {
      Json jt = Json::object();
      jt.set("title", t.title);
      Json headers = Json::array();
      for (const auto& h : t.headers) headers.push_back(h);
      jt.set("headers", std::move(headers));
      Json rows = Json::array();
      for (const auto& row : t.rows) {
        Json jrow = Json::array();
        for (const auto& cell : row) jrow.push_back(cell);
        rows.push_back(std::move(jrow));
      }
      jt.set("rows", std::move(rows));
      tables.push_back(std::move(jt));
    }
    doc.set("tables", std::move(tables));
  }

  if (!breakdowns_.empty()) {
    Json breakdowns = Json::array();
    for (const auto& b : breakdowns_) {
      Json jb = Json::object();
      jb.set("name", b.name);
      Json cats = Json::array();
      for (const auto& [cname, cycles] : b.categories) {
        Json jc = Json::object();
        jc.set("name", cname);
        jc.set("cycles", cycles);
        cats.push_back(std::move(jc));
      }
      jb.set("categories", std::move(cats));
      breakdowns.push_back(std::move(jb));
    }
    doc.set("breakdowns", std::move(breakdowns));
  }

  if (!metrics_.is_null()) doc.set("metrics", metrics_);
  if (!slo_.is_null()) doc.set("slo", slo_);
  return doc;
}

RunReport RunReport::from_json(const Json& doc) {
  if (!doc.is_object()) throw SchemaError("run document must be a JSON object");
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->as_string() != kRunSchemaName)
    throw SchemaError(std::string("not a ") + kRunSchemaName + " document");
  const Json* version = doc.find("schema_version");
  if (version == nullptr || !version->is_number())
    throw SchemaError("missing schema_version");
  const int ver = static_cast<int>(version->as_number());
  if (ver < kRunSchemaMinVersion || ver > kRunSchemaVersion)
    throw SchemaError("unsupported schema_version " + json_number(version->as_number()) +
                      " (this build reads versions " +
                      std::to_string(kRunSchemaMinVersion) + ".." +
                      std::to_string(kRunSchemaVersion) + ")");

  RunReport report(doc.at("name").as_string());

  if (const Json* meta = doc.find("meta")) {
    for (const auto& [k, v] : meta->as_object()) report.set_meta(k, v.as_string());
  }

  if (const Json* tables = doc.find("tables")) {
    for (const auto& jt : tables->as_array()) {
      ReportTable t;
      t.title = jt.at("title").as_string();
      for (const auto& h : jt.at("headers").as_array()) t.headers.push_back(h.as_string());
      for (const auto& jrow : jt.at("rows").as_array()) {
        std::vector<std::string> row;
        for (const auto& cell : jrow.as_array()) row.push_back(cell.as_string());
        if (row.size() != t.headers.size())
          throw SchemaError("table \"" + t.title + "\" has a row of width " +
                            std::to_string(row.size()) + ", headers have " +
                            std::to_string(t.headers.size()));
        t.rows.push_back(std::move(row));
      }
      report.add_table(std::move(t));
    }
  }

  if (const Json* breakdowns = doc.find("breakdowns")) {
    for (const auto& jb : breakdowns->as_array()) {
      Breakdown b;
      b.name = jb.at("name").as_string();
      for (const auto& jc : jb.at("categories").as_array())
        b.categories.emplace_back(jc.at("name").as_string(), jc.at("cycles").as_number());
      report.add_breakdown(std::move(b));
    }
  }

  if (const Json* metrics = doc.find("metrics")) report.metrics_ = *metrics;
  if (const Json* slo = doc.find("slo")) report.slo_ = *slo;
  return report;
}

void RunReport::write_json(std::ostream& os) const {
  to_json().dump(os, 2);
  os << '\n';
}

namespace {

std::string csv_cell(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void RunReport::write_csv(std::ostream& os) const {
  for (const auto& t : tables_) {
    os << "# " << t.title << '\n';
    for (std::size_t c = 0; c < t.headers.size(); ++c)
      os << (c ? "," : "") << csv_cell(t.headers[c]);
    os << '\n';
    for (const auto& row : t.rows) {
      for (std::size_t c = 0; c < row.size(); ++c) os << (c ? "," : "") << csv_cell(row[c]);
      os << '\n';
    }
    os << '\n';
  }
  for (const auto& b : breakdowns_) {
    os << "# breakdown: " << b.name << '\n';
    os << "category,cycles\n";
    for (const auto& [cname, cycles] : b.categories)
      os << csv_cell(cname) << ',' << json_number(cycles) << '\n';
    os << '\n';
  }
}

}  // namespace kami::obs
