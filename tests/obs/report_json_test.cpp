#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/table.hpp"

namespace kami::obs {
namespace {

RunReport sample_report() {
  RunReport report("unit");
  report.set_meta("device", "TinyGPU");
  report.set_meta("blocks", "16384");

  ReportTable table;
  table.title = "Fig X: sample";
  table.headers = {"n", "tflops"};
  table.rows = {{"64", "1.25"}, {"128", "2.50"}};
  report.add_table(std::move(table));

  Breakdown bd;
  bd.name = "TinyGPU/fp16/n=64/KAMI-1D";
  bd.categories = {{"smem_comm", 10.0}, {"compute", 40.0}, {"sync_wait", 2.5}};
  report.add_breakdown(std::move(bd));

  MetricRegistry metrics;
  metrics.counter("sim.mma.issued").add(12.0);
  metrics.gauge("sim.smem.high_water_bytes").set(4096.0);
  metrics.histogram("planner.reg_demand_bytes").observe(192.0);
  report.set_metrics(metrics);
  return report;
}

TEST(RunReport, JsonRoundTripPreservesEverything) {
  const RunReport report = sample_report();

  std::ostringstream os;
  report.write_json(os);
  Json doc = Json::parse(os.str());
  // Documents written before the "regions" and "utilization" sections were
  // retired still load.
  doc.set("regions", Json::parse(R"([{"name":"kernel","count":1,"total_cycles":8,)"
                                 R"("self_cycles":8}])"));
  doc.set("utilization", Json::parse(R"({"bucket_cycles":2,"wall_cycles":8,)"
                                     R"("resources":[{"name":"smem_port",)"
                                     R"("busy":[1,0.5,0,0]}]})"));
  const RunReport back = RunReport::from_json(doc);

  EXPECT_EQ(back.name(), "unit");
  ASSERT_EQ(back.meta().size(), 2u);
  EXPECT_EQ(back.meta()[0].first, "device");
  EXPECT_EQ(back.meta()[0].second, "TinyGPU");

  ASSERT_EQ(back.tables().size(), 1u);
  const ReportTable& t = back.tables()[0];
  EXPECT_EQ(t.title, "Fig X: sample");
  ASSERT_EQ(t.headers.size(), 2u);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[1][1], "2.50");  // cells survive as the exact strings

  const Breakdown* bd = back.find_breakdown("TinyGPU/fp16/n=64/KAMI-1D");
  ASSERT_NE(bd, nullptr);
  ASSERT_EQ(bd->categories.size(), 3u);
  EXPECT_EQ(bd->categories[0].first, "smem_comm");  // order preserved
  ASSERT_NE(bd->find("sync_wait"), nullptr);
  EXPECT_DOUBLE_EQ(*bd->find("sync_wait"), 2.5);

  EXPECT_DOUBLE_EQ(
      back.metrics().at("counters").at("sim.mma.issued").as_number(), 12.0);
  // The legacy sections are skipped, not carried: writing the reloaded run
  // gives back the document as it was before they were added.
  EXPECT_EQ(back.to_json().dump(), report.to_json().dump());
}

TEST(RunReport, GoldenSchemaShape) {
  // Lock the v1 envelope: field names here are the public contract that
  // tools/kami_prof and external consumers parse.
  const Json doc = sample_report().to_json();
  EXPECT_EQ(doc.at("schema").as_string(), kRunSchemaName);
  EXPECT_DOUBLE_EQ(doc.at("schema_version").as_number(), kRunSchemaVersion);
  EXPECT_EQ(doc.at("name").as_string(), "unit");
  EXPECT_NE(doc.find("meta"), nullptr);
  EXPECT_NE(doc.find("tables"), nullptr);
  EXPECT_NE(doc.find("breakdowns"), nullptr);
  EXPECT_NE(doc.find("metrics"), nullptr);
  // Retired sections are never written.
  EXPECT_EQ(doc.find("regions"), nullptr);
  EXPECT_EQ(doc.find("utilization"), nullptr);

  const Json& table = doc.at("tables").at(std::size_t{0});
  EXPECT_NE(table.find("title"), nullptr);
  EXPECT_NE(table.find("headers"), nullptr);
  EXPECT_NE(table.find("rows"), nullptr);

  const Json& cat =
      doc.at("breakdowns").at(std::size_t{0}).at("categories").at(std::size_t{0});
  EXPECT_EQ(cat.at("name").as_string(), "smem_comm");
  EXPECT_DOUBLE_EQ(cat.at("cycles").as_number(), 10.0);
}

TEST(RunReport, FromJsonRejectsWrongSchema) {
  Json doc = sample_report().to_json();
  doc.set("schema", Json("not.kami"));
  EXPECT_THROW(RunReport::from_json(doc), SchemaError);

  Json doc2 = sample_report().to_json();
  doc2.set("schema_version", Json(999.0));
  EXPECT_THROW(RunReport::from_json(doc2), SchemaError);

  EXPECT_THROW(RunReport::from_json(Json::parse("{\"x\":1}")), SchemaError);
}

TEST(RunReport, FromJsonRejectsRaggedTableRows) {
  Json doc = sample_report().to_json();
  // Drop a cell from the second row so it no longer matches the header width.
  Json rows = doc.at("tables").at(std::size_t{0}).at("rows");
  Json bad_row = Json::array();
  bad_row.push_back(Json("64"));
  Json new_rows = Json::array();
  new_rows.push_back(bad_row);
  Json table = doc.at("tables").at(std::size_t{0});
  table.set("rows", new_rows);
  Json tables = Json::array();
  tables.push_back(table);
  doc.set("tables", tables);
  (void)rows;
  EXPECT_THROW(RunReport::from_json(doc), SchemaError);
}

TEST(RunReport, CapturesTablePrinterCellsVerbatim) {
  TablePrinter tp({"alg", "cycles"});
  tp.add_row({"kami_2d", "123.4"});
  RunReport report("t");
  report.add_table("Tbl", tp);
  ASSERT_EQ(report.tables().size(), 1u);
  EXPECT_EQ(report.tables()[0].headers[0], "alg");
  EXPECT_EQ(report.tables()[0].rows[0][1], "123.4");
}

TEST(RunReport, CsvContainsSectionsAndCells) {
  std::ostringstream os;
  sample_report().write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("# Fig X: sample"), std::string::npos);
  EXPECT_NE(csv.find("n,tflops"), std::string::npos);
  EXPECT_NE(csv.find("128,2.50"), std::string::npos);
  EXPECT_NE(csv.find("smem_comm"), std::string::npos);
}

}  // namespace
}  // namespace kami::obs
