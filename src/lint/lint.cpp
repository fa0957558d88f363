// Lint engine: file discovery, repo-model construction, baseline gating
// and the text/SARIF emitters behind `mac3d lint`.
#include "lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/json.hpp"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"

namespace mac3d::lint {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

[[nodiscard]] bool is_cpp_source(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

/// src/** and apps/** C++ sources beneath `root`, as sorted root-relative
/// generic paths. Sorting makes the scan (and therefore every emitted
/// artifact) independent of directory-entry order.
[[nodiscard]] std::vector<std::string> discover_sources(
    const fs::path& root, std::vector<std::string>& errors) {
  std::vector<std::string> paths;
  bool any_tree = false;
  for (const char* subtree : {"src", "apps"}) {
    const fs::path base = root / subtree;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    any_tree = true;
    for (fs::recursive_directory_iterator it(base, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file(ec) && is_cpp_source(it->path())) {
        paths.push_back(
            fs::relative(it->path(), root, ec).generic_string());
      }
    }
    if (ec) {
      errors.push_back("error walking " + base.generic_string() + ": " +
                       ec.message());
    }
  }
  if (!any_tree) {
    errors.push_back("no src/ or apps/ directory under lint root '" +
                     root.generic_string() + "'");
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

[[nodiscard]] RepoModel build_model(const std::string& root,
                                    std::vector<std::string>& errors) {
  RepoModel model;
  model.root = root;
  const fs::path base(root);

  for (const std::string& rel : discover_sources(base, errors)) {
    std::string text;
    if (!read_file(base / rel, text)) {
      errors.push_back("cannot read " + rel);
      continue;
    }
    model.files.push_back({rel, lex_cpp(text)});
  }

  for (const FileTokens& file : model.files) {
    if (file.path == "src/obs/obs.hpp") {
      model.stage_names = taxonomy_from_obs_header(file.tokens);
      model.stage_count = count_from_obs_header(file.tokens);
    } else if (file.path == "src/check/invariants.hpp") {
      model.inv_header_present = true;
      model.inv_header = file.tokens;
    }
  }

  model.obs_doc_present =
      read_file(base / "docs/OBSERVABILITY.md", model.obs_doc);
  model.inv_doc_present =
      read_file(base / "docs/INVARIANTS.md", model.inv_doc);

  std::string schema_text;
  const bool schema_present =
      read_file(base / "docs/metrics_schema.json", schema_text);
  model.schema = parse_metrics_schema(schema_text, schema_present);
  return model;
}

/// Findings grouped per (rule, file) in sorted order, with counts.
[[nodiscard]] std::map<std::pair<std::string, std::string>, std::uint64_t>
group_findings(const LintReport& report) {
  std::map<std::pair<std::string, std::string>, std::uint64_t> groups;
  for (const Finding& finding : report.findings) {
    ++groups[{finding.rule, finding.file}];
  }
  return groups;
}

}  // namespace

LintReport run_rules(const std::string& root) {
  LintReport report;
  RepoModel model = build_model(root, report.errors);
  report.files_scanned = model.files.size();
  for (const FileTokens& file : model.files) {
    run_file_rules(model, file, report.findings);
  }
  run_repo_rules(model, report.findings);
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.col, a.message) <
                     std::tie(b.file, b.line, b.rule, b.col, b.message);
            });
  report.new_findings = report.findings.size();
  return report;
}

bool load_baseline(const std::string& file, Baseline& out,
                   std::string& error) {
  std::string text;
  if (!read_file(file, text)) {
    error = "cannot read baseline '" + file + "'";
    return false;
  }
  JsonValue doc;
  if (!parse_json(text, doc, error)) {
    error = "baseline '" + file + "': " + error;
    return false;
  }
  if (doc.string_or("schema") != "mac3d-lint-baseline/1") {
    error = "baseline '" + file + "': unrecognized schema tag '" +
            doc.string_or("schema") + "' (want mac3d-lint-baseline/1)";
    return false;
  }
  const JsonValue* entries = doc.find("entries");
  if (entries == nullptr || entries->kind != JsonValue::Kind::kArray) {
    error = "baseline '" + file + "': missing 'entries' array";
    return false;
  }
  for (const JsonValue& item : entries->items) {
    BaselineEntry entry;
    entry.rule = item.string_or("rule");
    entry.file = item.string_or("file");
    entry.justification = item.string_or("justification");
    if (entry.rule.empty() || entry.file.empty()) {
      error = "baseline '" + file +
              "': entries need nonempty 'rule' and 'file'";
      return false;
    }
    // An absent count means 1; a present one must be a number.
    const JsonValue* count = item.find("count");
    if ((count != nullptr && count->kind != JsonValue::Kind::kNumber) ||
        !json_count(item.number_or("count", 1.0), entry.count) ||
        entry.count == 0) {
      error = "baseline '" + file + "': 'count' of " + entry.rule + " in " +
              entry.file + " is not a whole number in [1, 2^53]";
      return false;
    }
    if (find_rule(entry.rule) == nullptr) {
      error = "baseline '" + file + "': unknown rule id '" + entry.rule +
              "'";
      return false;
    }
    if (entry.justification.empty()) {
      error = "baseline '" + file + "': 'justification' of " + entry.rule +
              " in " + entry.file + " must be a nonempty string";
      return false;
    }
    out.entries.push_back(std::move(entry));
  }
  return true;
}

void apply_baseline(const Baseline& baseline, LintReport& report) {
  std::map<std::pair<std::string, std::string>, std::uint64_t> allowance;
  for (const BaselineEntry& entry : baseline.entries) {
    allowance[{entry.rule, entry.file}] += entry.count;
  }
  std::map<std::pair<std::string, std::string>, std::uint64_t> used;
  report.new_findings = 0;
  for (Finding& finding : report.findings) {
    const std::pair<std::string, std::string> key{finding.rule,
                                                  finding.file};
    const auto it = allowance.find(key);
    if (it != allowance.end() && used[key] < it->second) {
      ++used[key];
      finding.suppressed = true;
    } else {
      finding.suppressed = false;
      ++report.new_findings;
    }
  }
  report.stale_baseline.clear();
  for (const auto& [key, allowed] : allowance) {
    const std::uint64_t matched = used.count(key) != 0 ? used.at(key) : 0;
    if (matched < allowed) {
      std::ostringstream note;
      note << key.first << " in " << key.second << " (allows " << allowed
           << ", found " << matched << ")";
      report.stale_baseline.push_back(note.str());
    }
  }
}

std::string baseline_json(const LintReport& report) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"mac3d-lint-baseline/1\",\n  \"entries\": [";
  bool first = true;
  for (const auto& [key, count] : group_findings(report)) {
    out << (first ? "" : ",") << "\n    {\"rule\": \""
        << json_escape(key.first) << "\", \"file\": \""
        << json_escape(key.second) << "\", \"count\": " << count
        << ", \"justification\": \"unreviewed\"}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

std::string sarif_json(const LintReport& report) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"mac3d-lint\",\n"
      << "          \"informationUri\": \"docs/STATIC_ANALYSIS.md\",\n"
      << "          \"rules\": [";
  bool first = true;
  for (const RuleInfo& rule : rule_catalog()) {
    out << (first ? "" : ",") << "\n            {\"id\": \""
        << json_escape(rule.id) << "\", \"shortDescription\": {\"text\": \""
        << json_escape(rule.summary)
        << "\"}, \"properties\": {\"family\": \"" << json_escape(rule.family)
        << "\"}}";
    first = false;
  }
  out << "\n          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  first = true;
  for (const Finding& finding : report.findings) {
    // SARIF regions are 1-based; whole-file findings pin to line 1.
    const std::uint32_t line = finding.line == 0 ? 1 : finding.line;
    const std::uint32_t col = finding.col == 0 ? 1 : finding.col;
    out << (first ? "" : ",") << "\n        {\"ruleId\": \""
        << json_escape(finding.rule) << "\", \"level\": \"error\", "
        << "\"message\": {\"text\": \"" << json_escape(finding.message)
        << "\"}, \"locations\": [{\"physicalLocation\": "
        << "{\"artifactLocation\": {\"uri\": \"" << json_escape(finding.file)
        << "\"}, \"region\": {\"startLine\": " << line
        << ", \"startColumn\": " << col << "}}}]";
    if (finding.suppressed) {
      out << ", \"suppressions\": [{\"kind\": \"external\"}]";
    }
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n      ") << "]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

std::string render_text(const LintReport& report) {
  std::ostringstream out;
  std::size_t suppressed = 0;
  for (const Finding& finding : report.findings) {
    out << finding.file << ":" << finding.line << ":" << finding.col << ": "
        << finding.rule << ": " << finding.message;
    if (finding.suppressed) {
      out << " [baselined]";
      ++suppressed;
    }
    out << "\n";
  }
  out << "mac3d lint: " << report.findings.size() << " finding"
      << (report.findings.size() == 1 ? "" : "s") << " ("
      << report.new_findings << " new, " << suppressed
      << " baselined) across " << report.files_scanned
      << " files scanned\n";
  for (const std::string& note : report.stale_baseline) {
    out << "note: stale baseline entry: " << note << "\n";
  }
  return out.str();
}

int run_lint_cli(const LintCliOptions& options) {
  if (options.list_rules) {
    for (const RuleInfo& rule : rule_catalog()) {
      std::cout << rule.id << "  [" << rule.family << "]  " << rule.summary
                << "\n";
    }
    return 0;
  }

  LintReport report = run_rules(options.root);
  if (!report.errors.empty()) {
    for (const std::string& error : report.errors) {
      std::cerr << "mac3d lint: " << error << "\n";
    }
    return 2;
  }

  if (!options.baseline.empty()) {
    Baseline baseline;
    std::string error;
    if (!load_baseline(options.baseline, baseline, error)) {
      std::cerr << "mac3d lint: " << error << "\n";
      return 2;
    }
    apply_baseline(baseline, report);
  }

  if (!options.write_baseline.empty()) {
    std::ofstream out(options.write_baseline, std::ios::binary);
    if (!out) {
      std::cerr << "mac3d lint: cannot write baseline '"
                << options.write_baseline << "'\n";
      return 2;
    }
    out << baseline_json(report);
    std::cout << "mac3d lint: wrote baseline for " << report.findings.size()
              << " findings to " << options.write_baseline << "\n";
    return 0;
  }

  if (!options.sarif.empty()) {
    std::ofstream out(options.sarif, std::ios::binary);
    if (!out) {
      std::cerr << "mac3d lint: cannot write SARIF '" << options.sarif
                << "'\n";
      return 2;
    }
    out << sarif_json(report);
  }

  std::cout << render_text(report);
  return report.new_findings > 0 ? 1 : 0;
}

}  // namespace mac3d::lint
