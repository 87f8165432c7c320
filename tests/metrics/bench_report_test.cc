/**
 * @file
 * Tests for the bench report builder and the regression comparator —
 * the contract CI's bench gate (bench/bench_compare) relies on.
 */

#include "metrics/bench_report.h"

#include <gtest/gtest.h>

#include <string>

#include "baselines/factory.h"
#include "metrics/speedup.h"
#include "tests/common/json_check.h"

namespace hoard {
namespace metrics {
namespace {

BenchReport
sample_report()
{
    BenchReport report("tbl_example", /*quick=*/true);
    report.set_title("Example table");
    report.add_metric("latency/hoard/p99", 120.0, "ns", Better::lower);
    report.add_metric("speedup/hoard/p8", 7.5, "x", Better::higher);
    report.add_metric("frag/hoard", 1.12, "ratio", Better::info);
    return report;
}

TEST(BenchReport, EmitsValidSchemaDocument)
{
    BenchReport report = sample_report();
    std::string text = report.to_json().to_string();
    ASSERT_TRUE(testutil::json_valid(text)) << text;

    std::string error;
    JsonValue doc = JsonValue::parse(text, &error);
    ASSERT_TRUE(doc.is_object()) << error;
    EXPECT_EQ(doc.string_or("schema", ""), BenchReport::kSchema);
    EXPECT_EQ(doc.string_or("bench", ""), "tbl_example");
    EXPECT_EQ(doc.string_or("title", ""), "Example table");
    ASSERT_NE(doc.find("quick"), nullptr);
    EXPECT_TRUE(doc.find("quick")->as_bool());

    const JsonValue* env = doc.find("environment");
    ASSERT_NE(env, nullptr);
    EXPECT_NE(env->find("compiler"), nullptr);
    EXPECT_NE(env->find("obs_env"), nullptr);
    EXPECT_NE(env->find("hardware_threads"), nullptr);

    const JsonValue* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->items().size(), 3u);
    EXPECT_EQ(metrics->items()[0].string_or("key", ""),
              "latency/hoard/p99");
    EXPECT_EQ(metrics->items()[0].string_or("better", ""), "lower");
    EXPECT_EQ(metrics->items()[1].string_or("better", ""), "higher");
    EXPECT_EQ(metrics->items()[2].string_or("better", ""), "info");
}

TEST(BenchReport, RecordsSpeedupCellsAndConfig)
{
    SpeedupResult result;
    result.title = "FIG-example";
    result.options.procs = {1, 8};
    result.options.kinds = {baselines::AllocatorKind::hoard,
                            baselines::AllocatorKind::serial};
    result.options.observability = true;
    result.cells.resize(2, std::vector<SpeedupCell>(2));
    result.cells[0][0].makespan = 1000;
    result.cells[0][0].speedup = 1.0;
    result.cells[1][0].makespan = 130;
    result.cells[1][0].speedup = 7.7;
    result.cells[1][0].timeline_samples = 42;
    result.cells[1][1].makespan = 990;
    result.cells[1][1].speedup = 1.01;

    BenchReport report("fig_example", false);
    report.add_speedup_result(result);

    JsonValue doc = report.to_json();
    // One gated speedup + one info makespan per (P, allocator) cell.
    ASSERT_EQ(report.metrics().size(), 8u);

    const JsonValue* cells = doc.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->items().size(), 4u);
    const JsonValue& hoard_p8 = cells->items()[2];
    EXPECT_EQ(hoard_p8.string_or("allocator", ""), "hoard");
    EXPECT_DOUBLE_EQ(hoard_p8.number_or("procs", 0.0), 8.0);
    EXPECT_DOUBLE_EQ(hoard_p8.number_or("speedup", 0.0), 7.7);
    const JsonValue* obs = hoard_p8.find("obs");
    ASSERT_NE(obs, nullptr);
    EXPECT_DOUBLE_EQ(obs->number_or("timeline_samples", 0.0), 42.0);

    // The allocator configuration the sweep ran with is echoed.
    const JsonValue* config = doc.find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_NE(config->find("superblock_bytes"), nullptr);
    EXPECT_NE(config->find("empty_fraction"), nullptr);
}

TEST(BenchCompare, IdenticalReportsPass)
{
    JsonValue doc = sample_report().to_json();
    CompareResult cmp = compare_reports(doc, doc, 10.0);
    EXPECT_TRUE(cmp.ok());
    EXPECT_EQ(cmp.regressions, 0);
    EXPECT_TRUE(cmp.missing.empty());
    // Only the two gated metrics produce deltas; "info" is skipped.
    EXPECT_EQ(cmp.deltas.size(), 2u);
}

TEST(BenchCompare, FlagsHalvedSpeedupAsRegression)
{
    JsonValue base = sample_report().to_json();

    BenchReport worse("tbl_example", true);
    worse.add_metric("latency/hoard/p99", 120.0, "ns", Better::lower);
    worse.add_metric("speedup/hoard/p8", 3.75, "x", Better::higher);
    worse.add_metric("frag/hoard", 1.12, "ratio", Better::info);
    JsonValue next = worse.to_json();

    CompareResult cmp = compare_reports(base, next, 10.0);
    EXPECT_FALSE(cmp.ok());
    EXPECT_EQ(cmp.regressions, 1);
    bool found = false;
    for (const MetricDelta& d : cmp.deltas) {
        if (d.key == "speedup/hoard/p8") {
            found = true;
            EXPECT_TRUE(d.regression);
            EXPECT_DOUBLE_EQ(d.change_pct, -50.0);
        } else {
            EXPECT_FALSE(d.regression);
        }
    }
    EXPECT_TRUE(found);
}

TEST(BenchCompare, FlagsLatencyIncreaseAsRegression)
{
    JsonValue base = sample_report().to_json();

    BenchReport worse("tbl_example", true);
    worse.add_metric("latency/hoard/p99", 200.0, "ns", Better::lower);
    worse.add_metric("speedup/hoard/p8", 7.5, "x", Better::higher);
    JsonValue next = worse.to_json();

    CompareResult cmp = compare_reports(base, next, 10.0);
    EXPECT_EQ(cmp.regressions, 1);
    ASSERT_FALSE(cmp.deltas.empty());
    EXPECT_EQ(cmp.deltas[0].key, "latency/hoard/p99");
    EXPECT_TRUE(cmp.deltas[0].regression);
}

TEST(BenchCompare, InfoMetricsNeverGate)
{
    BenchReport base_r("tbl_example", true);
    base_r.add_metric("frag/hoard", 1.0, "ratio", Better::info);
    BenchReport next_r("tbl_example", true);
    next_r.add_metric("frag/hoard", 100.0, "ratio", Better::info);

    CompareResult cmp =
        compare_reports(base_r.to_json(), next_r.to_json(), 10.0);
    EXPECT_TRUE(cmp.ok());
    EXPECT_TRUE(cmp.deltas.empty());
}

TEST(BenchCompare, ImprovementsAndSlackTolerated)
{
    BenchReport base_r("b", true);
    base_r.add_metric("speedup/hoard/p8", 8.0, "x", Better::higher);
    base_r.add_metric("latency/hoard/p99", 100.0, "ns", Better::lower);
    BenchReport next_r("b", true);
    // 2x better speedup, 5% worse latency: both within a 10% gate.
    next_r.add_metric("speedup/hoard/p8", 16.0, "x", Better::higher);
    next_r.add_metric("latency/hoard/p99", 105.0, "ns", Better::lower);

    CompareResult cmp =
        compare_reports(base_r.to_json(), next_r.to_json(), 10.0);
    EXPECT_TRUE(cmp.ok());
}

TEST(BenchCompare, MissingMetricsListedNotGated)
{
    BenchReport base_r("b", true);
    base_r.add_metric("speedup/hoard/p8", 8.0, "x", Better::higher);
    base_r.add_metric("gone/metric", 1.0, "x", Better::higher);
    BenchReport next_r("b", true);
    next_r.add_metric("speedup/hoard/p8", 8.0, "x", Better::higher);

    CompareResult cmp =
        compare_reports(base_r.to_json(), next_r.to_json(), 10.0);
    EXPECT_TRUE(cmp.ok());
    ASSERT_EQ(cmp.missing.size(), 1u);
    EXPECT_EQ(cmp.missing[0], "gone/metric");
}

TEST(BenchCompare, SuiteDocumentsFlattenWithBenchPrefix)
{
    JsonValue suite_base = JsonValue::make_object();
    suite_base.set("schema",
                   JsonValue::make_string(BenchReport::kSuiteSchema));
    JsonValue benches = JsonValue::make_object();
    benches.set("tbl_example", sample_report().to_json());
    suite_base.set("benches", std::move(benches));

    BenchReport worse("tbl_example", true);
    worse.add_metric("speedup/hoard/p8", 1.0, "x", Better::higher);
    JsonValue suite_next = JsonValue::make_object();
    JsonValue next_benches = JsonValue::make_object();
    next_benches.set("tbl_example", worse.to_json());
    suite_next.set("benches", std::move(next_benches));

    CompareResult cmp =
        compare_reports(suite_base, suite_next, 10.0);
    EXPECT_FALSE(cmp.ok());
    bool found = false;
    for (const MetricDelta& d : cmp.deltas) {
        if (d.key == "tbl_example/speedup/hoard/p8") {
            found = true;
            EXPECT_TRUE(d.regression);
        }
    }
    EXPECT_TRUE(found);
}

}  // namespace
}  // namespace metrics
}  // namespace hoard
