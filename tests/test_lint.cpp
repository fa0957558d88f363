// The lint subsystem (src/lint/, docs/STATIC_ANALYSIS.md):
//  * every catalog rule fires on its violating fixture and stays quiet
//    on the conforming counterpart (tests/lint_fixtures/);
//  * the baseline round-trips: a full baseline suppresses everything, a
//    one-short baseline leaves exactly one new finding, stale entries
//    surface as notes;
//  * the SARIF emitter produces a well-formed 2.1.0 document whose rule
//    and result counts match the catalog and report;
//  * the CLI entry point returns the documented exit codes (0 clean,
//    1 new findings, 2 usage/IO/parse trouble);
//  * the metric-pattern matcher and the lexer behave at the edges the
//    rules rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "common/json.hpp"
#include "lint/lexer.hpp"
#include "lint/lint.hpp"
#include "lint/rules.hpp"

namespace mac3d::lint {
namespace {

const std::string kViolating =
    std::string(MAC3D_LINT_FIXTURES_DIR) + "/violating";
const std::string kConforming =
    std::string(MAC3D_LINT_FIXTURES_DIR) + "/conforming";

std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  return path;
}

/// A baseline covering every finding in `report`, built via the
/// regenerate path (baseline_json -> load_baseline round trip).
Baseline full_baseline(const LintReport& report, const std::string& name) {
  const std::string path = write_temp(name, baseline_json(report));
  Baseline baseline;
  std::string error;
  EXPECT_TRUE(load_baseline(path, baseline, error)) << error;
  return baseline;
}

TEST(LintCatalog, HasAllThreeFamiliesInStableOrder) {
  const auto& catalog = rule_catalog();
  ASSERT_GE(catalog.size(), 10u);
  std::map<std::string, int> families;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(catalog[i - 1].id, catalog[i].id);
    }
    ++families[std::string(catalog[i].family)];
    EXPECT_EQ(find_rule(catalog[i].id), &catalog[i]);
  }
  EXPECT_EQ(families.size(), 3u);
  EXPECT_GE(families["DET"], 5);
  EXPECT_GE(families["OBS"], 2);
  EXPECT_GE(families["SYNC"], 3);
  EXPECT_EQ(find_rule("no.such_rule"), nullptr);
}

TEST(LintRules, EveryRuleFiresOnTheViolatingTree) {
  const LintReport report = run_rules(kViolating);
  EXPECT_TRUE(report.errors.empty());
  std::set<std::string> fired;
  for (const Finding& finding : report.findings) {
    EXPECT_NE(find_rule(finding.rule), nullptr) << finding.rule;
    fired.insert(finding.rule);
  }
  for (const RuleInfo& rule : rule_catalog()) {
    EXPECT_EQ(fired.count(std::string(rule.id)), 1u)
        << "rule never fired: " << rule.id;
  }
}

TEST(LintRules, ConformingTreeIsCompletelyClean) {
  const LintReport report = run_rules(kConforming);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_EQ(report.findings.size(), 0u);
  EXPECT_EQ(report.new_findings, 0u);
  EXPECT_GT(report.files_scanned, 0u);
}

TEST(LintRules, FindingsAreSortedAndDeterministic) {
  const LintReport first = run_rules(kViolating);
  const LintReport second = run_rules(kViolating);
  ASSERT_EQ(first.findings.size(), second.findings.size());
  for (std::size_t i = 0; i < first.findings.size(); ++i) {
    EXPECT_EQ(first.findings[i].file, second.findings[i].file);
    EXPECT_EQ(first.findings[i].line, second.findings[i].line);
    EXPECT_EQ(first.findings[i].message, second.findings[i].message);
    if (i > 0) {
      EXPECT_LE(first.findings[i - 1].file, first.findings[i].file);
    }
  }
}

TEST(LintBaseline, FullBaselineSuppressesEverything) {
  LintReport report = run_rules(kViolating);
  const Baseline baseline = full_baseline(report, "lint_full_baseline.json");
  apply_baseline(baseline, report);
  EXPECT_EQ(report.new_findings, 0u);
  EXPECT_TRUE(report.stale_baseline.empty());
  for (const Finding& finding : report.findings) {
    EXPECT_TRUE(finding.suppressed) << finding.message;
  }
}

TEST(LintBaseline, OneShortBaselineLeavesOneNewFinding) {
  LintReport report = run_rules(kViolating);
  Baseline baseline = full_baseline(report, "lint_short_baseline.json");
  ASSERT_FALSE(baseline.entries.empty());
  if (baseline.entries.front().count > 1) {
    --baseline.entries.front().count;
  } else {
    baseline.entries.erase(baseline.entries.begin());
  }
  apply_baseline(baseline, report);
  EXPECT_EQ(report.new_findings, 1u);
}

TEST(LintBaseline, StaleEntriesAreNotedNotFatal) {
  LintReport report = run_rules(kConforming);
  Baseline baseline;
  baseline.entries.push_back(
      {"det.rand_source", "src/sim/gone.cpp", 3, "file was deleted"});
  apply_baseline(baseline, report);
  EXPECT_EQ(report.new_findings, 0u);
  ASSERT_EQ(report.stale_baseline.size(), 1u);
  EXPECT_NE(report.stale_baseline[0].find("det.rand_source"),
            std::string::npos);
}

TEST(LintBaseline, LoaderRejectsBadDocuments) {
  Baseline baseline;
  std::string error;
  EXPECT_FALSE(load_baseline("/no/such/baseline.json", baseline, error));
  const std::string bad_schema = write_temp(
      "lint_bad_schema.json", R"({"schema": "wrong/9", "entries": []})");
  EXPECT_FALSE(load_baseline(bad_schema, baseline, error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  const std::string bad_rule = write_temp(
      "lint_bad_rule.json",
      R"({"schema": "mac3d-lint-baseline/1", "entries": [
           {"rule": "no.such_rule", "file": "a.cpp", "count": 1}]})");
  EXPECT_FALSE(load_baseline(bad_rule, baseline, error));
  EXPECT_NE(error.find("no.such_rule"), std::string::npos);
  // A count of findings is a whole number in [1, 2^53], rejected by name
  // otherwise (1e400 already fails the JSON reader), never cast.
  for (const std::string count : {"0", "-1", "1.5", "1e30", "1e400"}) {
    const std::string bad_count = write_temp(
        "lint_bad_count.json",
        R"({"schema": "mac3d-lint-baseline/1", "entries": [
             {"rule": "det.rand_source", "file": "a.cpp", "count": )" +
            count + "}]}");
    EXPECT_FALSE(load_baseline(bad_count, baseline, error)) << count;
    EXPECT_NE(error.find(count == "1e400" ? "out of range" : "'count'"),
              std::string::npos)
        << error;
  }
  // A count of another JSON type is not taken as 1, and every entry
  // carries a nonempty string justification.
  const std::string entry_head =
      R"({"schema": "mac3d-lint-baseline/1", "entries": [
           {"rule": "det.env_access", "file": "src/sim/experiment.cpp")";
  const std::pair<std::string, std::string> bad_fields[] = {
      {R"(, "count": "7", "justification": "reads MAC3D_*")", "'count'"},
      {R"(, "count": 1, "justification": 5)", "'justification'"},
      {R"(, "count": 1, "justification": "")", "'justification'"},
      {R"(, "count": 1)", "'justification'"},
  };
  for (const auto& [fields, field] : bad_fields) {
    const std::string bad_entry = write_temp(
        "lint_bad_entry.json", entry_head + fields + "}]}");
    EXPECT_FALSE(load_baseline(bad_entry, baseline, error)) << fields;
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
}

/// The det.activity_oracle findings on one header, linted on its own.
std::size_t oracle_findings(const std::string& source) {
  const RepoModel model;
  std::vector<Finding> findings;
  run_file_rules(model, FileTokens{"src/sim/widget.hpp", lex_cpp(source)},
                 findings);
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.rule == "det.activity_oracle";
      }));
}

// The contract is what the engines and the census call: a wake oracle
// and register_census. Either one alone still fires.
TEST(LintRules, ActivityOracleNeedsWakeOracleAndCensusRegistration) {
  const std::string tick = "class W { public: void tick(Cycle now); ";
  EXPECT_EQ(oracle_findings(tick + "Cycle next_event(Cycle) const; };"), 1u);
  EXPECT_EQ(oracle_findings(tick + "void register_census(C&) const; };"),
            1u);
  EXPECT_EQ(oracle_findings(tick + "Cycle next_event(Cycle) const; "
                                   "void register_census(C&) const; };"),
            0u);
  // Node's perf-pinned name counts as a wake oracle, but a wake oracle
  // without census registration still fires.
  EXPECT_EQ(oracle_findings(tick + "Cycle next_activity_cycle(Cycle) const; "
                                   "void register_census(C&) const; };"),
            0u);
  EXPECT_EQ(oracle_findings(tick + "Cycle next_activity_cycle(Cycle) const; "
                                   "};"),
            1u);
}

TEST(LintSarif, DocumentIsWellFormedAndComplete) {
  LintReport report = run_rules(kViolating);
  const Baseline baseline =
      full_baseline(report, "lint_sarif_baseline.json");
  apply_baseline(baseline, report);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(sarif_json(report), doc, error)) << error;
  EXPECT_EQ(doc.string_or("version"), "2.1.0");
  const JsonValue* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->items.size(), 1u);
  const JsonValue& run = runs->items[0];
  const JsonValue* driver = run.find("tool")->find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->string_or("name"), "mac3d-lint");
  EXPECT_EQ(driver->find("rules")->items.size(), rule_catalog().size());
  const JsonValue* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items.size(), report.findings.size());
  for (std::size_t i = 0; i < results->items.size(); ++i) {
    const JsonValue& result = results->items[i];
    EXPECT_EQ(result.string_or("ruleId"), report.findings[i].rule);
    // Baselined findings carry a suppressions entry; live ones none.
    EXPECT_EQ(result.find("suppressions") != nullptr,
              report.findings[i].suppressed);
    const JsonValue& region = *result.find("locations")
                                   ->items[0]
                                   .find("physicalLocation")
                                   ->find("region");
    EXPECT_GE(region.number_or("startLine"), 1.0);  // SARIF is 1-based
  }
}

TEST(LintCli, ExitCodesMirrorReportDiff) {
  LintCliOptions missing;
  missing.root = "/no/such/tree";
  EXPECT_EQ(run_lint_cli(missing), 2);

  LintCliOptions violating;
  violating.root = kViolating;
  EXPECT_EQ(run_lint_cli(violating), 1);

  LintCliOptions conforming;
  conforming.root = kConforming;
  EXPECT_EQ(run_lint_cli(conforming), 0);

  LintCliOptions bad_baseline;
  bad_baseline.root = kConforming;
  bad_baseline.baseline = "/no/such/baseline.json";
  EXPECT_EQ(run_lint_cli(bad_baseline), 2);
}

TEST(LintCli, WriteBaselineThenGateIsClean) {
  const std::string path = ::testing::TempDir() + "lint_regen_baseline.json";
  LintCliOptions regenerate;
  regenerate.root = kViolating;
  regenerate.write_baseline = path;
  EXPECT_EQ(run_lint_cli(regenerate), 0);

  LintCliOptions gated;
  gated.root = kViolating;
  gated.baseline = path;
  gated.sarif = ::testing::TempDir() + "lint_regen.sarif";
  EXPECT_EQ(run_lint_cli(gated), 0);

  // The SARIF artifact written on the gated run parses.
  std::ifstream in(gated.sarif, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(parse_json(text.str(), doc, error)) << error;
}

TEST(LintLexer, StringsCommentsAndRawStringsLexCleanly) {
  const std::string source = R"src(
    // comment with rand() inside
    /* block with getenv("X") */
    const char* a = "literal with rand() text";
    const char* b = R"(raw with "quotes" and rand())";
    int c = 42;
  )src";
  std::size_t rand_idents = 0;
  std::size_t strings = 0;
  for (const Token& token : lex_cpp(source)) {
    if (token.kind == Tok::kIdent && token.text == "rand") ++rand_idents;
    if (token.kind == Tok::kString) ++strings;
  }
  EXPECT_EQ(rand_idents, 0u);  // comments/strings never produce idents
  EXPECT_EQ(strings, 2u);
}

TEST(LintPatterns, PlaceholdersMatchOneOrMoreDigits) {
  EXPECT_TRUE(pattern_match("node<i>.router.routed", "node3.router.routed"));
  EXPECT_TRUE(
      pattern_match("node<i>.router.routed", "node128.router.routed"));
  EXPECT_TRUE(pattern_match("fabric.link<S><D>.requests",
                            "fabric.link07.requests"));
  EXPECT_TRUE(pattern_match("system.cycles", "system.cycles"));
  EXPECT_FALSE(pattern_match("node<i>.router.routed", "node.router.routed"));
  EXPECT_FALSE(pattern_match("node<i>.router.routed", "nodeX.router.routed"));
  EXPECT_FALSE(pattern_match("system.cycles", "system.cycle"));
  EXPECT_FALSE(pattern_match("system.cycles", "system.cycles.extra"));
}

TEST(LintRealTree, CommittedBaselineKeepsTheRepoClean) {
  // The in-repo run that CI performs: the committed baseline must cover
  // every finding in the tree as committed. Locate the repo root from
  // the fixtures dir (tests/lint_fixtures -> repo root).
  const std::string root = std::string(MAC3D_LINT_FIXTURES_DIR) + "/../..";
  LintReport report = run_rules(root);
  ASSERT_TRUE(report.errors.empty());
  Baseline baseline;
  std::string error;
  ASSERT_TRUE(
      load_baseline(root + "/tools/lint_baseline.json", baseline, error))
      << error;
  apply_baseline(baseline, report);
  EXPECT_EQ(report.new_findings, 0u) << render_text(report);
  EXPECT_TRUE(report.stale_baseline.empty()) << render_text(report);
}

}  // namespace
}  // namespace mac3d::lint
