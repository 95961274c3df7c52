// Unit tests for the bench_compare engine (tools/bench_compare_core.h):
// JSON parsing of both bench schemas, row matching, tolerance math, and
// the acceptance-criterion behaviors — identical inputs pass, an injected
// >15% p95 regression fails.
#include "tools/bench_compare_core.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace fgad::benchcmp {
namespace {

const char* kBaseline = R"({
  "bench": "wal_overhead",
  "schema": 1,
  "meta": {"max_n": 4096, "samples": 200},
  "rows": [
    {"mode": "off", "wal": 0, "n": 4096, "pairs": 200,
     "mutations_per_s": 36000.0,
     "delete_p50_us": 36.1, "delete_p95_us": 59.2, "delete_p99_us": 154.1,
     "delete_samples": 200},
    {"mode": "fsync", "wal": 1, "n": 4096, "pairs": 200,
     "mutations_per_s": 2600.0,
     "delete_p50_us": 316.0, "delete_p95_us": 960.2, "delete_p99_us": 1642.8,
     "delete_samples": 200}
  ]
})";

/// The baseline with one metric of one row scaled by `factor`.
std::string with_scaled(const std::string& metric, double factor) {
  auto f = parse_bench_json(kBaseline).value();
  std::string out = kBaseline;
  // Rebuild via parse->mutate is overkill for a test fixture; patch the
  // literal: find `"<metric>": <value>` in the fsync row and rescale.
  (void)f;
  const std::string needle = "\"" + metric + "\": ";
  const std::size_t row = out.find("\"mode\": \"fsync\"");
  const std::size_t pos = out.find(needle, row);
  EXPECT_NE(pos, std::string::npos);
  const std::size_t vstart = pos + needle.size();
  std::size_t vend = out.find_first_of(",}\n", vstart);
  const double v = std::stod(out.substr(vstart, vend - vstart));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v * factor);
  out = out.substr(0, vstart) + buf + out.substr(vend);
  return out;
}

TEST(BenchCompareJson, ParsesBenchSchema) {
  auto f = parse_bench_json(kBaseline);
  ASSERT_TRUE(f) << f.status().to_string();
  EXPECT_EQ(f.value().bench, "wal_overhead");
  ASSERT_EQ(f.value().rows.size(), 2u);
  const Row& r0 = f.value().rows[0];
  // Identity excludes metrics and sample counts; includes mode/wal/n.
  EXPECT_NE(r0.key.find("mode=off"), std::string::npos);
  EXPECT_NE(r0.key.find("wal=0"), std::string::npos);
  EXPECT_EQ(r0.key.find("pairs"), std::string::npos);
  EXPECT_EQ(r0.key.find("delete_samples"), std::string::npos);
  EXPECT_EQ(r0.metrics.size(), 4u);
  EXPECT_DOUBLE_EQ(r0.metrics.at("delete_p95_us"), 59.2);
}

TEST(BenchCompareJson, ParsesGoogleBenchmarkSchema) {
  const char* gb = R"({
    "context": {"host_name": "x"},
    "benchmarks": [
      {"name": "BM_DeriveKey/1024", "run_type": "iteration",
       "iterations": 1000, "real_time": 123.4, "cpu_time": 120.1,
       "time_unit": "ns"}
    ]
  })";
  auto f = parse_bench_json(gb);
  ASSERT_TRUE(f) << f.status().to_string();
  EXPECT_EQ(f.value().bench, "micro_core");
  ASSERT_EQ(f.value().rows.size(), 1u);
  EXPECT_DOUBLE_EQ(f.value().rows[0].metrics.at("real_time"), 123.4);
  EXPECT_NE(f.value().rows[0].key.find("BM_DeriveKey/1024"),
            std::string::npos);
}

TEST(BenchCompareJson, RejectsGarbage) {
  EXPECT_FALSE(parse_bench_json("not json"));
  EXPECT_FALSE(parse_bench_json("{\"bench\": \"x\"}"));  // no rows
  EXPECT_FALSE(parse_bench_json("[1,2,3]"));
  EXPECT_FALSE(parse_bench_json("{\"rows\": [1]}"));  // row not an object
  EXPECT_FALSE(parse_bench_json("{\"rows\": []} trailing"));
}

TEST(BenchCompareClassify, MetricKeys) {
  EXPECT_TRUE(is_metric_key("delete_p95_us"));
  EXPECT_TRUE(is_metric_key("wal_fsync_ns"));
  EXPECT_TRUE(is_metric_key("mutations_per_s"));
  EXPECT_TRUE(is_metric_key("throughput_mbps"));
  EXPECT_TRUE(is_metric_key("overhead_pct"));
  EXPECT_FALSE(is_metric_key("delete_samples"));
  EXPECT_FALSE(is_metric_key("pairs"));
  EXPECT_FALSE(is_metric_key("mode"));
  EXPECT_FALSE(is_metric_key("n"));
  // Rates are higher-is-better; latencies lower-is-better.
  EXPECT_TRUE(is_rate_key("mutations_per_s"));
  EXPECT_FALSE(is_rate_key("delete_p95_us"));
  EXPECT_TRUE(is_latency_key("delete_p95_us"));
}

TEST(BenchCompareVerdict, IdenticalInputsPass) {
  auto f = parse_bench_json(kBaseline).value();
  const auto r = compare(f, f);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.regressions, 0u);
  EXPECT_EQ(r.rows_matched, 2u);
  EXPECT_GT(r.metrics_compared, 0u);
  EXPECT_TRUE(r.unmatched_old.empty());
  EXPECT_TRUE(r.unmatched_new.empty());
}

TEST(BenchCompareVerdict, InjectedP95RegressionFails) {
  // The acceptance criterion: >15% p95 regression exits nonzero.
  auto oldf = parse_bench_json(kBaseline).value();
  auto newf = parse_bench_json(with_scaled("delete_p95_us", 1.20)).value();
  const auto r = compare(oldf, newf);
  EXPECT_FALSE(r.ok());
  ASSERT_GE(r.diffs.size(), 1u);
  // Sorted worst-first: the doctored metric leads.
  EXPECT_EQ(r.diffs[0].metric, "delete_p95_us");
  EXPECT_TRUE(r.diffs[0].regression);
  EXPECT_NEAR(r.diffs[0].worse_by, 0.20, 1e-9);
}

TEST(BenchCompareVerdict, WithinToleranceChangePasses) {
  auto oldf = parse_bench_json(kBaseline).value();
  auto newf = parse_bench_json(with_scaled("delete_p95_us", 1.10)).value();
  EXPECT_TRUE(compare(oldf, newf).ok());
}

TEST(BenchCompareVerdict, ImprovementNeverFails) {
  auto oldf = parse_bench_json(kBaseline).value();
  // 2x faster p95 and 2x higher throughput: both good directions.
  auto newf = parse_bench_json(with_scaled("delete_p95_us", 0.5)).value();
  EXPECT_TRUE(compare(oldf, newf).ok());
  auto newf2 = parse_bench_json(with_scaled("mutations_per_s", 2.0)).value();
  EXPECT_TRUE(compare(oldf, newf2).ok());
}

TEST(BenchCompareVerdict, ThroughputDropFails) {
  auto oldf = parse_bench_json(kBaseline).value();
  auto newf = parse_bench_json(with_scaled("mutations_per_s", 0.5)).value();
  const auto r = compare(oldf, newf);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.diffs[0].metric, "mutations_per_s");
  EXPECT_NEAR(r.diffs[0].worse_by, 0.5, 1e-9);
}

TEST(BenchCompareVerdict, P99GetsWiderTolerance) {
  auto oldf = parse_bench_json(kBaseline).value();
  // +30% on p99 is inside the 35% tail tolerance...
  EXPECT_TRUE(
      compare(oldf, parse_bench_json(with_scaled("delete_p99_us", 1.30)).value())
          .ok());
  // ...but +40% is not.
  EXPECT_FALSE(
      compare(oldf, parse_bench_json(with_scaled("delete_p99_us", 1.40)).value())
          .ok());
}

TEST(BenchCompareVerdict, PerMetricOverrideWins) {
  auto oldf = parse_bench_json(kBaseline).value();
  auto newf = parse_bench_json(with_scaled("delete_p95_us", 1.20)).value();
  CompareOptions opts;
  opts.per_metric["delete_p95_us"] = 0.30;
  EXPECT_TRUE(compare(oldf, newf, opts).ok());
  opts.per_metric["delete_p95_us"] = 0.10;
  EXPECT_FALSE(compare(oldf, newf, opts).ok());
}

TEST(BenchCompareVerdict, UnmatchedRowsReportedNotFailed) {
  auto oldf = parse_bench_json(kBaseline).value();
  const char* smaller = R"({
    "bench": "wal_overhead", "schema": 1, "meta": {},
    "rows": [
      {"mode": "off", "wal": 0, "n": 4096,
       "mutations_per_s": 36000.0, "delete_p50_us": 36.1,
       "delete_p95_us": 59.2, "delete_p99_us": 154.1}
    ]
  })";
  auto newf = parse_bench_json(smaller).value();
  const auto r = compare(oldf, newf);
  EXPECT_TRUE(r.ok());  // a missing row is reported, not a perf verdict
  EXPECT_EQ(r.rows_matched, 1u);
  ASSERT_EQ(r.unmatched_old.size(), 1u);
  EXPECT_NE(r.unmatched_old[0].find("mode=fsync"), std::string::npos);
}

TEST(BenchCompareVerdict, ZeroMatchedRowsFails) {
  // A measured output (wal_fsyncs) slipped into row identity, so no row of
  // the baseline finds its twin: nothing is compared, and that is no pass.
  auto oldf = parse_bench_json(kBaseline).value();
  const char* drifted = R"({
    "bench": "wal_overhead", "schema": 1, "meta": {},
    "rows": [
      {"mode": "off", "wal": 0, "n": 4096, "wal_fsyncs": 17,
       "mutations_per_s": 36000.0, "delete_p50_us": 36.1}
    ]
  })";
  auto newf = parse_bench_json(drifted).value();
  const auto r = compare(oldf, newf);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.nothing_matched());
  EXPECT_EQ(r.regressions, 0u);
  EXPECT_EQ(r.metrics_compared, 0u);
  EXPECT_EQ(r.unmatched_old.size(), 2u);
  const std::string rep = render_report_json("wal_overhead", r);
  EXPECT_NE(rep.find("\"verdict\":\"no_rows_matched\""), std::string::npos);
  EXPECT_TRUE(JsonParser(rep).parse());
  EXPECT_NE(render_report_text("wal_overhead", r).find("no old row matched"),
            std::string::npos);
  // A baseline without rows expects nothing, so it still passes.
  EXPECT_TRUE(compare(BenchFile{}, newf).ok());
}

TEST(BenchCompareReport, JsonVerdictMachineReadable) {
  auto oldf = parse_bench_json(kBaseline).value();
  auto newf = parse_bench_json(with_scaled("delete_p95_us", 1.20)).value();
  const auto bad = compare(oldf, newf);
  const std::string rep = render_report_json("wal_overhead", bad);
  EXPECT_NE(rep.find("\"verdict\":\"regression\""), std::string::npos);
  EXPECT_NE(rep.find("\"metric\":\"delete_p95_us\""), std::string::npos);
  // The report itself must be parseable JSON.
  EXPECT_TRUE(JsonParser(rep).parse());

  const auto good = compare(oldf, oldf);
  const std::string rep2 = render_report_json("wal_overhead", good);
  EXPECT_NE(rep2.find("\"verdict\":\"ok\""), std::string::npos);
  EXPECT_TRUE(JsonParser(rep2).parse());
}

TEST(BenchCompareReport, TextReportNamesRegressions) {
  auto oldf = parse_bench_json(kBaseline).value();
  auto newf = parse_bench_json(with_scaled("delete_p95_us", 1.20)).value();
  const std::string text =
      render_report_text("wal_overhead", compare(oldf, newf));
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("delete_p95_us"), std::string::npos);
}

TEST(BenchCompareJson, RealSnapshotRoundTrip) {
  // Every committed snapshot must stay parseable and self-compare clean —
  // this is the invariant CI's perf job leans on.
  const std::filesystem::path dir =
      std::filesystem::path(FGAD_SOURCE_DIR) / "bench" / "results";
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") {
      continue;
    }
    SCOPED_TRACE(name);
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    auto parsed = parse_bench_json(text);
    ASSERT_TRUE(parsed) << parsed.status().to_string();
    EXPECT_TRUE(compare(parsed.value(), parsed.value()).ok());
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "no snapshots under " << dir;
}

}  // namespace
}  // namespace fgad::benchcmp
