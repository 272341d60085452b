// The result field table (core/result_fields.h) and its consumers:
//
//   1. docs/result_schema_v1.json is exactly what the metric tables
//      render (result_schema_json() below), so the committed schema that
//      tools/check_bench_json.py validates against cannot drift (and
//      docs/SWEEP_CLI.md names every [table] cell metric);
//   2. names are unique, and .sweep spellings resolve through the table
//      (lifetime is the spelling of lifetime_years, nothing else aliases);
//   3. BENCH rows list every metric once, in table order, with integer
//      metrics printed exactly (no 1e+06, no rounding above 2^53).
#include "core/result_fields.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/bench_record.h"
#include "core/grid_spec.h"
#include "util/error.h"

namespace pcal {
namespace {

/// Replaces `@<tag>_REQUIRED@` / `@<tag>_PROPERTIES@` in the kSchema
/// template with a metric table's required names and property members.
template <class R, std::size_t N>
void splice_schema(std::string* schema, const Metric<R> (&table)[N],
                   const std::string& tag, const std::string& indent) {
  std::string required, properties;
  for (const Metric<R>& m : table) {
    required += ", \"" + std::string(m.name) + "\"";
    properties += ",\n" + indent + "\"" + m.name + "\": { \"type\": \"" +
                  (m.u64 != nullptr ? "integer" : "number") + "\" }";
  }
  const auto splice = [schema](const std::string& marker,
                               const std::string& text) {
    schema->replace(schema->find(marker), marker.size(), text);
  };
  splice("@" + tag + "_REQUIRED@", required);
  splice("@" + tag + "_PROPERTIES@", properties);
}

// The row envelope write_result_row adds around the metrics.
constexpr const char* kSchema = R"({
  "$schema": "http://json-schema.org/draft-07/schema#",
  "$id": "pcal-result-v1",
  "title": "pcal per-job result row, version 1",
  "description": "One element of a BENCH_<name>.json record's results array (write_result_row); pcal.run/pcal.sweep result dicts carry the same scalar keys. Generated from src/core/result_fields.h by tests/result_fields_test.cc; do not edit by hand.",
  "type": "object",
  "required": ["workload", "config", "ok"@ROW_REQUIRED@],
  "properties": {
    "job": { "type": "integer", "minimum": 0 },
    "workload": { "type": "string" },
    "config": { "type": "string" },
    "ok": { "type": "boolean" }@ROW_PROPERTIES@,
    "cores": { "type": "array", "items": { "$ref": "#/definitions/core" } }
  },
  "definitions": {
    "core": {
      "type": "object",
      "required": ["workload"@CORE_REQUIRED@],
      "properties": {
        "workload": { "type": "string" }@CORE_PROPERTIES@
      }
    }
  }
}
)";

/// The result-row JSON Schema, rendered from the metric tables.
std::string result_schema_json() {
  std::string schema = kSchema;
  splice_schema(&schema, kResultMetrics, "ROW", "    ");
  splice_schema(&schema, kCoreMetrics, "CORE", "        ");
  return schema;
}

// tools/check_bench_json.py validates rows against the committed schema;
// it must be exactly what the table renders.  On a mismatch the fresh
// rendering is written next to the test's temp files to copy over.
TEST(ResultSchema, CommittedFileMatchesTheTable) {
  const std::string path =
      std::string(PCAL_SOURCE_DIR) + "/docs/result_schema_v1.json";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read " << path;
  std::ostringstream committed;
  committed << in.rdbuf();
  const std::string rendered = result_schema_json();
  if (committed.str() != rendered) {
    const std::string fresh =
        ::testing::TempDir() + "/result_schema_v1.json";
    std::ofstream(fresh) << rendered;
    ADD_FAILURE() << path << " is stale; the table renders " << fresh
                  << " — copy it over the committed file";
  }
}

// docs/SWEEP_CLI.md lists the [table] cell metrics; it must name every
// spelling the table accepts.
TEST(ResultSchema, SweepDocsListEveryCellMetric) {
  const std::string path =
      std::string(PCAL_SOURCE_DIR) + "/docs/SWEEP_CLI.md";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read " << path;
  std::ostringstream doc;
  doc << in.rdbuf();
  for (const ResultMetric& m : kResultMetrics)
    EXPECT_NE(doc.str().find("`" + std::string(m.sweep_spelling()) + "`"),
              std::string::npos)
        << path << " does not list " << m.sweep_spelling();
}

template <class R, std::size_t N>
void expect_unique_names(const Metric<R> (&table)[N]) {
  std::set<std::string> names;
  for (const Metric<R>& m : table) {
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
    EXPECT_NE(m.u64 == nullptr, m.f64 == nullptr)
        << m.name << " needs exactly one getter";
  }
}

TEST(ResultMetrics, NamesAreUniqueWithOneGetterEach) {
  expect_unique_names(kResultMetrics);
  expect_unique_names(kCoreMetrics);
  std::set<std::string> spellings;
  for (const ResultMetric& m : kResultMetrics)
    EXPECT_TRUE(spellings.insert(std::string(m.sweep_spelling())).second);
}

TEST(ResultMetrics, SweepSpellingsResolveThroughTheTable) {
  SimResult r;
  r.accesses = 1000;
  r.total_cycles = 1500;
  r.breakeven_cycles = 28;
  r.units.resize(2);
  r.units[0].sleep_residency = 0.25;
  r.units[1].sleep_residency = 0.75;
  r.lifetime = CacheLifetimeResult{};
  r.lifetime->lifetime_years = 7.5;

  const ResultMetric* lifetime = find_sweep_metric("lifetime");
  ASSERT_NE(lifetime, nullptr);
  EXPECT_STREQ(lifetime->name, "lifetime_years");
  EXPECT_EQ(find_sweep_metric("lifetime_years"), nullptr);
  EXPECT_EQ(grid_metric_value(r, "lifetime"), 7.5);
  EXPECT_EQ(grid_metric_value(r, "idleness"), 0.5);
  EXPECT_EQ(grid_metric_value(r, "min_idleness"), 0.25);
  EXPECT_EQ(grid_metric_value(r, "avg_latency"), 1.5);
  EXPECT_EQ(grid_metric_value(r, "breakeven_cycles"), 28.0);
  for (const ResultMetric& m : kResultMetrics)
    EXPECT_EQ(grid_metric_value(r, std::string(m.sweep_spelling())),
              m.u64 != nullptr ? static_cast<double>(m.u64(r)) : m.f64(r))
        << m.name;
  EXPECT_THROW(grid_metric_value(r, "no_such_metric"), ConfigError);
}

TEST(ResultRow, ListsEveryMetricOnceInTableOrder) {
  SimResult r;
  r.accesses = 1000000;               // as a double, ostream prints 1e+06
  r.total_cycles = (1ull << 53) + 1;  // not representable as a double
  r.bw_stall_cycles = 18446744073709551615ull;
  CoreResult c;
  c.workload = "cjpeg";
  c.llc_way_mask = 0xf0;
  const std::vector<CoreResult> cores{c};
  std::ostringstream os;
  write_result_row(os, r, "w", /*ok=*/true, &cores, /*job=*/3);
  const std::string row = os.str();

  EXPECT_NE(row.find("\"accesses\": 1000000,"), std::string::npos) << row;
  EXPECT_NE(row.find("\"total_cycles\": 9007199254740993,"),
            std::string::npos)
      << row;
  EXPECT_NE(row.find("\"bw_stall_cycles\": 18446744073709551615,"),
            std::string::npos)
      << row;
  EXPECT_EQ(row.rfind("{\"job\": 3, \"workload\": \"w\", \"config\": \"\", "
                      "\"ok\": true, \"accesses\": ",
                      0),
            0u)
      << row;

  std::size_t pos = 0;
  for (const ResultMetric& m : kResultMetrics) {
    const std::string key = "\"" + std::string(m.name) + "\": ";
    const std::size_t at = row.find(key, pos);
    ASSERT_NE(at, std::string::npos) << m.name << " missing or out of order";
    pos = at + key.size();
  }
  const std::size_t core_at = row.find("\"cores\": [{\"workload\": \"cjpeg\"");
  ASSERT_NE(core_at, std::string::npos) << row;
  pos = core_at;
  for (const CoreMetric& m : kCoreMetrics) {
    const std::string key = "\"" + std::string(m.name) + "\": ";
    const std::size_t at = row.find(key, pos);
    ASSERT_NE(at, std::string::npos) << m.name << " missing or out of order";
    pos = at + key.size();
  }
  EXPECT_NE(row.find("\"llc_way_mask\": 240,"), std::string::npos) << row;
}

}  // namespace
}  // namespace pcal
