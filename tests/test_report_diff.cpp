// Report schema versioning and the regression-diff tool (src/obs/
// report_diff.*, docs/OBSERVABILITY.md §report-diff):
//  * the flattening parser reads schema /1../3 (legacy) and /4 reports;
//  * a /4 report round-trips through the differ with a zero self-diff;
//  * tolerance gating fires on a perturbed metric and stays quiet inside
//    the tolerance band;
//  * --ignore entries silence exact paths, dot-bounded section prefixes
//    and '*' globs (and exempt ignored paths from missing-metric gating);
//  * the `host` section (wall-clock attribution) never gates a diff;
//  * the CLI entry point returns the documented exit codes (0 in
//    tolerance, 1 regression, 2 usage/IO/parse trouble) and fails loudly
//    on mismatched schemas and unknown top-level sections.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "obs/report_diff.hpp"
#include "obs/run_report.hpp"

namespace mac3d {
namespace {

/// A representative /2 report: headline numbers, config, metrics-free.
RunReport sample_report() {
  RunReport report;
  report.set_string("workload", "sg");
  report.set_number("threads", 8);
  report.set_number("cycles", 123456);
  report.set_number("wall_seconds", 1.25);
  SimConfig config;
  report.set_config(config);
  StatSet stats;
  stats.set("mac.packets", 1024);
  stats.set("mac.avg_latency", 87.5);
  report.set_path_stats("mac", stats);
  return report;
}

std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << body;
  return path;
}

TEST(ReportParse, ReadsSchemaV4AndFlattensNestedSections) {
  FlatReport flat;
  std::string error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), flat, error)) << error;
  EXPECT_EQ(flat.schema, "mac3d-run-report/4");
  EXPECT_DOUBLE_EQ(flat.numbers.at("cycles"), 123456.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("paths.mac.stats.mac.packets"), 1024.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("paths.mac.stats.mac.avg_latency"), 87.5);
  EXPECT_EQ(flat.strings.at("workload"), "sg");
  // Config numbers flatten under "config." and are diffable too.
  EXPECT_GT(flat.numbers.count("config.row_bytes"), 0u);
}

TEST(ReportParse, ReadsLegacySchemaV1Reports) {
  // A hand-built /1 document, as written by pre-/2 releases: same shape,
  // older schema tag, no "metrics" section.
  const std::string v1 =
      "{\n  \"schema\": \"mac3d-run-report/1\",\n"
      "  \"workload\": \"sg\",\n"
      "  \"cycles\": 99,\n"
      "  \"paths\": {\n    \"mac\": {\n      \"stats\": "
      "{\"mac.packets\":7}\n    }\n  }\n}\n";
  FlatReport flat;
  std::string error;
  ASSERT_TRUE(parse_report(v1, flat, error)) << error;
  EXPECT_EQ(flat.schema, "mac3d-run-report/1");
  EXPECT_DOUBLE_EQ(flat.numbers.at("cycles"), 99.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("paths.mac.stats.mac.packets"), 7.0);
}

TEST(ReportParse, ReadsLegacySchemaV2Reports) {
  // A /2 document as written by pre-/3 releases: no "latency"/"host".
  const std::string v2 =
      "{\n  \"schema\": \"mac3d-run-report/2\",\n"
      "  \"cycles\": 42,\n"
      "  \"metrics\": {\"node0.router.routed\": 5}\n}\n";
  FlatReport flat;
  std::string error;
  ASSERT_TRUE(parse_report(v2, flat, error)) << error;
  EXPECT_EQ(flat.schema, "mac3d-run-report/2");
  EXPECT_DOUBLE_EQ(flat.numbers.at("metrics.node0.router.routed"), 5.0);
}

TEST(ReportParse, RejectsUnknownSchemaAndMalformedJson) {
  FlatReport flat;
  std::string error;
  EXPECT_FALSE(parse_report("{\"schema\": \"mac3d-run-report/9\"}", flat,
                            error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_report("{\"cycles\": ", flat, error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_report("{\"cycles\": 1}", flat, error));  // no schema
  EXPECT_FALSE(error.empty());
}

TEST(ReportParse, RejectsWhatRfc8259Rejects) {
  const std::string head = "{\"schema\": \"mac3d-run-report/4\", \"x\": ";
  for (const char* bad : {"+1", ".5", "01", "\"a\\uzzzzb\"", "\"\\u12\"",
                          "1.", "-", "1e+", "\"tab\there\""}) {
    FlatReport flat;
    std::string error;
    EXPECT_FALSE(parse_report(head + bad + "}", flat, error)) << bad;
    EXPECT_NE(error.find(" at byte "), std::string::npos) << bad << error;
  }
  // \u0000-\u007f decode to that byte, which round-trips json_escape's
  // \u00XX; any other code point decodes to '?'.
  FlatReport flat;
  std::string error;
  ASSERT_TRUE(parse_report(head + "\"a\\u0001b\\u00E9\"}", flat, error))
      << error;
  EXPECT_EQ(flat.strings["x"], std::string("a\x01") + "b?");
}

TEST(ReportParse, FlattensEveryLeafKindLikeTheDocumentReads) {
  FlatReport flat;
  std::string error;
  ASSERT_TRUE(flatten_json(
      R"({"a": {"b": [1, true, null, "s"]}, "c": false, "a": {"d": 2}})",
      flat, error))
      << error;
  EXPECT_EQ(flat.numbers["a.b.0"], 1.0);
  EXPECT_EQ(flat.numbers["a.b.1"], 1.0);
  EXPECT_EQ(flat.strings["a.b.2"], "null");
  EXPECT_EQ(flat.strings["a.b.3"], "s");
  EXPECT_EQ(flat.numbers["c"], 0.0);
  EXPECT_EQ(flat.numbers["a.d"], 2.0);  // a duplicate key: both walked
  EXPECT_EQ(flat.sections, (std::vector<std::string>{"a", "a"}));
  EXPECT_TRUE(flat.schema.empty());
}

TEST(ReportDiff, SelfDiffIsCleanAndIgnoresWallSeconds) {
  FlatReport a;
  FlatReport b;
  std::string error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), a, error)) << error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), b, error)) << error;
  b.numbers["wall_seconds"] = 99.0;  // timing noise must never gate

  const DiffResult result = diff_reports(a, b, DiffOptions{});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.out_of_tolerance, 0u);
  EXPECT_TRUE(result.deltas.empty());
  EXPECT_GT(result.compared, 0u);
}

TEST(ReportDiff, ToleranceGatesAPerturbedMetric) {
  FlatReport a;
  FlatReport b;
  std::string error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), a, error)) << error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), b, error)) << error;
  b.numbers["paths.mac.stats.mac.packets"] = 1024.0 * 1.05;  // +5%

  DiffOptions tight;
  tight.tolerance_pct = 2.0;
  const DiffResult fails = diff_reports(a, b, tight);
  EXPECT_FALSE(fails.ok());
  EXPECT_EQ(fails.out_of_tolerance, 1u);
  ASSERT_EQ(fails.deltas.size(), 1u);
  EXPECT_EQ(fails.deltas[0].path, "paths.mac.stats.mac.packets");
  EXPECT_TRUE(fails.deltas[0].out_of_tolerance);
  // The rendered table flags the offender.
  const std::string table = render_diff(fails, tight);
  EXPECT_NE(table.find("paths.mac.stats.mac.packets"), std::string::npos);
  EXPECT_NE(table.find("!"), std::string::npos);

  DiffOptions loose;
  loose.tolerance_pct = 10.0;
  const DiffResult passes = diff_reports(a, b, loose);
  EXPECT_TRUE(passes.ok());
  EXPECT_EQ(passes.out_of_tolerance, 0u);
  ASSERT_EQ(passes.deltas.size(), 1u);  // reported, but inside the band
  EXPECT_FALSE(passes.deltas[0].out_of_tolerance);
}

TEST(ReportDiff, HostSectionIsExemptByName) {
  // Wall-clock attribution is nondeterministic by nature, so the whole
  // `host` section is excluded from diffing — even wild swings (or the
  // section appearing on one side only) never gate a baseline.
  RunReport with_host = sample_report();
  with_host.set_host(
      "{\"phase_seconds\": {\"tick\": 1.0}, "
      "\"workers\": {\"count\": 2, \"imbalance\": 1.5}}");
  FlatReport a;
  FlatReport b;
  std::string error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), a, error)) << error;
  ASSERT_TRUE(parse_report(with_host.to_json(), b, error)) << error;
  EXPECT_GT(b.numbers.count("host.phase_seconds.tick"), 0u);

  const DiffResult result = diff_reports(a, b, DiffOptions{});
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.deltas.empty());
}

TEST(ReportDiff, IgnoreMatchesExactSectionPrefixAndGlob) {
  FlatReport a;
  FlatReport b;
  std::string error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), a, error)) << error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), b, error)) << error;
  b.numbers["paths.mac.stats.mac.packets"] = 9999.0;
  b.numbers["paths.mac.stats.mac.avg_latency"] = 1.0;

  DiffOptions none;
  none.tolerance_pct = 1.0;
  EXPECT_FALSE(diff_reports(a, b, none).ok());

  // Exact path form silences one metric, the other still gates.
  DiffOptions exact = none;
  exact.ignore = {"paths.mac.stats.mac.packets"};
  const DiffResult partial = diff_reports(a, b, exact);
  EXPECT_FALSE(partial.ok());
  ASSERT_EQ(partial.deltas.size(), 1u);
  EXPECT_EQ(partial.deltas[0].path, "paths.mac.stats.mac.avg_latency");

  // Section-prefix form silences the whole subtree.
  DiffOptions prefix = none;
  prefix.ignore = {"paths.mac"};
  EXPECT_TRUE(diff_reports(a, b, prefix).ok());
  EXPECT_TRUE(diff_reports(a, b, prefix).deltas.empty());

  // A prefix must stop at a dot boundary: "paths.ma" matches nothing.
  DiffOptions truncated = none;
  truncated.ignore = {"paths.ma"};
  EXPECT_FALSE(diff_reports(a, b, truncated).ok());

  // Glob form: '*' spans dots too.
  DiffOptions glob = none;
  glob.ignore = {"paths.*.packets"};
  const DiffResult globbed = diff_reports(a, b, glob);
  EXPECT_FALSE(globbed.ok());
  ASSERT_EQ(globbed.deltas.size(), 1u);
  EXPECT_EQ(globbed.deltas[0].path, "paths.mac.stats.mac.avg_latency");
  DiffOptions glob_all = none;
  glob_all.ignore = {"paths.*"};
  EXPECT_TRUE(diff_reports(a, b, glob_all).ok());
}

TEST(ReportDiff, IgnoredPathsAreExemptFromMissingGating) {
  FlatReport a;
  FlatReport b;
  std::string error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), a, error)) << error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), b, error)) << error;
  b.numbers.erase("paths.mac.stats.mac.packets");

  EXPECT_FALSE(diff_reports(a, b, DiffOptions{}).ok());
  DiffOptions ignored;
  ignored.ignore = {"paths.mac.stats.mac.packets"};
  EXPECT_TRUE(diff_reports(a, b, ignored).ok());
}

TEST(ReportDiff, MissingMetricsGateUnlessAllowed) {
  FlatReport a;
  FlatReport b;
  std::string error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), a, error)) << error;
  ASSERT_TRUE(parse_report(sample_report().to_json(), b, error)) << error;
  b.numbers.erase("cycles");
  b.numbers["brand_new_metric"] = 1.0;

  DiffOptions strict;
  const DiffResult gated = diff_reports(a, b, strict);
  EXPECT_FALSE(gated.ok());

  DiffOptions relaxed;
  relaxed.fail_on_missing = false;  // bench --baseline: baselines age
  const DiffResult allowed = diff_reports(a, b, relaxed);
  EXPECT_TRUE(allowed.ok());
}

TEST(ReportDiffCli, ExitCodesMatchTheContract) {
  const std::string report_json = sample_report().to_json();
  const std::string old_path = write_temp("rd_old.json", report_json);
  const std::string new_path = write_temp("rd_new.json", report_json);
  // Self-diff: clean exit.
  EXPECT_EQ(run_report_diff(old_path, new_path, DiffOptions{}), 0);

  // Perturb a real metric beyond tolerance: regression exit.
  RunReport perturbed = sample_report();
  perturbed.set_number("cycles", 123456 * 2);
  const std::string bad_path =
      write_temp("rd_bad.json", perturbed.to_json());
  DiffOptions tolerant;
  tolerant.tolerance_pct = 5.0;
  EXPECT_EQ(run_report_diff(old_path, bad_path, tolerant), 1);

  // Unreadable / unparsable input: usage exit.
  EXPECT_EQ(run_report_diff(old_path, ::testing::TempDir() + "rd_absent.json",
                            DiffOptions{}),
            2);
  const std::string junk_path = write_temp("rd_junk.json", "not json");
  EXPECT_EQ(run_report_diff(old_path, junk_path, DiffOptions{}), 2);

  // Non-RFC 8259 number and escape forms: each is one stderr line and
  // exit 2 (read leniently, "a\uzzzzb" would diff equal to "a\u0000b").
  for (const char* bad : {"+1", ".5", "01", "\"a\\uzzzzb\""}) {
    const std::string bad_json =
        "{\"schema\": \"mac3d-run-report/4\", \"x\": " + std::string(bad) +
        "}";
    const std::string lenient_path = write_temp("rd_lenient.json", bad_json);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_report_diff(lenient_path, lenient_path, DiffOptions{}), 2)
        << bad;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    std::remove(lenient_path.c_str());
  }

  // A number no double holds (strtod's +-HUGE_VAL) is malformed input:
  // one line and exit 2, never an infinite metric diffed to "-nan%". A
  // finite number is a gauge however large, negative or fractional.
  for (const std::string value : {"1e400", "-1e400", "-1", "1.5", "1e30"}) {
    const std::string path = write_temp(
        "rd_range.json", "{\"schema\": \"mac3d-run-report/4\", "
                         "\"metrics\": {\"x\": " + value + "}}");
    const bool overflows = value.find("e400") != std::string::npos;
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_report_diff(path, path, DiffOptions{}), overflows ? 2 : 0)
        << value;
    const std::string out = ::testing::internal::GetCapturedStdout();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), overflows ? 1 : 0)
        << err;
    EXPECT_EQ(out.find("nan"), std::string::npos) << out;
    std::remove(path.c_str());
  }

  // Mismatched schema versions: silently diffing a /2 baseline against a
  // /3 run would hide every new section, so the CLI refuses (exit 2,
  // regenerate the baseline).
  const std::string v2_path = write_temp(
      "rd_v2.json", "{\n  \"schema\": \"mac3d-run-report/2\",\n"
                    "  \"cycles\": 123456\n}\n");
  EXPECT_EQ(run_report_diff(v2_path, new_path, DiffOptions{}), 2);

  // Unknown top-level section: a typo'd or future section name must not
  // be silently flattened and compared as if understood.
  const std::string unknown_path = write_temp(
      "rd_unknown.json", "{\n  \"schema\": \"mac3d-run-report/3\",\n"
                         "  \"mystery\": {\"x\": 1}\n}\n");
  EXPECT_EQ(run_report_diff(old_path, unknown_path, DiffOptions{}), 2);

  for (const std::string& p : {old_path, new_path, bad_path, junk_path,
                               v2_path, unknown_path}) {
    std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace mac3d
