#include "obs/report_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/json.hpp"

namespace mac3d {
namespace {

/// Flattens `value` under `path`: numbers (true/false as 1/0) into
/// `numbers`, strings (null as "null") into `strings`, object members as
/// "path.key" and array elements as "path.<i>". Members are visited in
/// document order, so a duplicate key keeps its last value. Object-valued
/// top-level keys are recorded as sections.
void flatten(const JsonValue& value, const std::string& path,
             FlatReport& out) {
  switch (value.kind) {
    case JsonValue::Kind::kNull: out.strings[path] = "null"; return;
    case JsonValue::Kind::kBool:
      out.numbers[path] = value.boolean ? 1.0 : 0.0;
      return;
    case JsonValue::Kind::kNumber: out.numbers[path] = value.number; return;
    case JsonValue::Kind::kString: out.strings[path] = value.string; return;
    case JsonValue::Kind::kArray:
      for (std::size_t i = 0; i < value.items.size(); ++i) {
        flatten(value.items[i], path + "." + std::to_string(i), out);
      }
      return;
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : value.members) {
        if (path.empty() && member.kind == JsonValue::Kind::kObject) {
          out.sections.push_back(key);
        }
        flatten(member, path.empty() ? key : path + "." + key, out);
      }
      return;
  }
}

[[nodiscard]] std::string format_value(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// Wildcard glob: '*' matches any run of characters (dots included).
/// Iterative backtracking — linear for the short patterns --ignore takes.
[[nodiscard]] bool glob_match(std::string_view pattern,
                              std::string_view text) {
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

/// One --ignore entry against one dotted path: globs when the entry
/// carries a '*', otherwise exact path or section prefix ("metrics"
/// covers "metrics.foo.bar").
[[nodiscard]] bool ignore_match(const std::string& pattern,
                                const std::string& path) {
  if (pattern.find('*') != std::string::npos) {
    return glob_match(pattern, path);
  }
  if (path == pattern) return true;
  return path.size() > pattern.size() && path[pattern.size()] == '.' &&
         path.compare(0, pattern.size(), pattern) == 0;
}

}  // namespace

bool parse_report(const std::string& json, FlatReport& out,
                  std::string& error) {
  if (!flatten_json(json, out, error)) return false;
  if (out.strings.count("schema") == 0) {
    error = "report has no \"schema\" field";
    return false;
  }
  if (out.schema != "mac3d-run-report/1" &&
      out.schema != "mac3d-run-report/2" &&
      out.schema != "mac3d-run-report/3" &&
      out.schema != "mac3d-run-report/4") {
    error = "unsupported schema \"" + out.schema + "\"";
    return false;
  }
  return true;
}

bool flatten_json(const std::string& json, FlatReport& out,
                  std::string& error) {
  out = FlatReport{};
  JsonValue document;
  if (!parse_json(json, document, error)) return false;
  flatten(document, "", out);
  const auto schema = out.strings.find("schema");
  if (schema != out.strings.end()) out.schema = schema->second;
  return true;
}

bool load_report(const std::string& file, FlatReport& out,
                 std::string& error) {
  std::ifstream in(file);
  if (!in.is_open()) {
    error = "cannot open " + file;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!parse_report(text.str(), out, error)) {
    error = file + ": " + error;
    return false;
  }
  return true;
}

DiffResult diff_reports(const FlatReport& old_report,
                        const FlatReport& new_report,
                        const DiffOptions& options) {
  DiffResult result;
  const auto ignored = [&](const std::string& path) {
    // Host wall-clock attribution is nondeterministic by nature: the
    // whole section is exempt from diffing by name (docs/OBSERVABILITY.md).
    if (path == "host" || path.rfind("host.", 0) == 0) return true;
    return std::any_of(options.ignore.begin(), options.ignore.end(),
                       [&path](const std::string& pattern) {
                         return ignore_match(pattern, path);
                       });
  };

  // Union walk of the two sorted numeric maps.
  auto old_it = old_report.numbers.begin();
  auto new_it = new_report.numbers.begin();
  while (old_it != old_report.numbers.end() ||
         new_it != new_report.numbers.end()) {
    MetricDelta delta;
    if (new_it == new_report.numbers.end() ||
        (old_it != old_report.numbers.end() && old_it->first < new_it->first)) {
      delta.path = old_it->first;
      delta.old_value = old_it->second;
      delta.only_old = true;
      ++old_it;
    } else if (old_it == old_report.numbers.end() ||
               new_it->first < old_it->first) {
      delta.path = new_it->first;
      delta.new_value = new_it->second;
      delta.only_new = true;
      ++new_it;
    } else {
      delta.path = old_it->first;
      delta.old_value = old_it->second;
      delta.new_value = new_it->second;
      ++old_it;
      ++new_it;
      if (!ignored(delta.path)) ++result.compared;
    }
    if (ignored(delta.path)) continue;

    if (delta.only_old || delta.only_new) {
      delta.relative = std::numeric_limits<double>::infinity();
      delta.out_of_tolerance = options.fail_on_missing;
    } else {
      const double magnitude =
          std::max(std::fabs(delta.old_value), std::fabs(delta.new_value));
      delta.relative = magnitude == 0.0 ? 0.0
                                        : std::fabs(delta.new_value -
                                                    delta.old_value) /
                                              magnitude;
      delta.out_of_tolerance =
          delta.relative * 100.0 > options.tolerance_pct;
    }
    if (delta.relative == 0.0) continue;  // identical: not worth listing
    if (delta.out_of_tolerance) ++result.out_of_tolerance;
    result.deltas.push_back(std::move(delta));
  }

  // Non-numeric leaves: exact match, except "schema" (a /1 baseline may be
  // compared against a /2 report; parse_report already validated both).
  for (const auto& [path, value] : old_report.strings) {
    if (path == "schema" || ignored(path)) continue;
    const auto other = new_report.strings.find(path);
    if (other == new_report.strings.end()) {
      result.string_mismatches.push_back(path + ": removed (was \"" + value +
                                         "\")");
    } else if (other->second != value) {
      result.string_mismatches.push_back(path + ": \"" + value + "\" -> \"" +
                                         other->second + "\"");
    }
  }
  for (const auto& [path, value] : new_report.strings) {
    if (path == "schema" || ignored(path)) continue;
    if (old_report.strings.find(path) == old_report.strings.end()) {
      result.string_mismatches.push_back(path + ": added (\"" + value +
                                         "\")");
    }
  }
  return result;
}

std::string render_diff(const DiffResult& result, const DiffOptions& options) {
  if (result.deltas.empty() && result.string_mismatches.empty()) return "";
  std::ostringstream out;
  std::size_t width = 6;
  for (const MetricDelta& delta : result.deltas) {
    width = std::max(width, delta.path.size());
  }
  width = std::min<std::size_t>(width, 64);

  char header[192];
  std::snprintf(header, sizeof(header), "  %-*s  %12s  %12s  %9s\n",
                static_cast<int>(width), "metric", "old", "new", "delta");
  out << header;
  out << "  " << std::string(width, '-') << "  ------------  ------------"
      << "  ---------\n";
  for (const MetricDelta& delta : result.deltas) {
    std::string rel;
    if (delta.only_old) {
      rel = "removed";
    } else if (delta.only_new) {
      rel = "added";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%+.2f%%",
                    (delta.new_value - delta.old_value) >= 0
                        ? delta.relative * 100.0
                        : -delta.relative * 100.0);
      rel = buf;
    }
    char line[192];
    std::snprintf(line, sizeof(line), "%c %-*s  %12s  %12s  %9s\n",
                  delta.out_of_tolerance ? '!' : ' ',
                  static_cast<int>(width), delta.path.c_str(),
                  delta.only_new ? "-" : format_value(delta.old_value).c_str(),
                  delta.only_old ? "-" : format_value(delta.new_value).c_str(),
                  rel.c_str());
    out << line;
  }
  for (const std::string& mismatch : result.string_mismatches) {
    out << "! " << mismatch << "\n";
  }
  out << "(" << result.compared << " metrics compared, "
      << result.out_of_tolerance + result.string_mismatches.size()
      << " out of tolerance at " << options.tolerance_pct << "%)\n";
  return out.str();
}

namespace {

/// Top-level object sections every supported schema may carry. Anything
/// else means the report came from a newer (or foreign) writer and a
/// diff would silently ignore whatever it contains — fail loudly instead.
[[nodiscard]] bool known_section(const std::string& name) {
  static constexpr std::string_view kKnown[] = {"config",  "metrics",
                                                "paths",   "checks",
                                                "latency", "host",
                                                "watchdog"};
  return std::find(std::begin(kKnown), std::end(kKnown), name) !=
         std::end(kKnown);
}

}  // namespace

int run_report_diff(const std::string& old_file, const std::string& new_file,
                    const DiffOptions& options) {
  FlatReport old_report;
  FlatReport new_report;
  std::string error;
  if (!load_report(old_file, old_report, error) ||
      !load_report(new_file, new_report, error)) {
    std::fprintf(stderr, "report-diff: %s\n", error.c_str());
    return 2;
  }
  if (old_report.schema != new_report.schema) {
    std::fprintf(stderr,
                 "report-diff: schema mismatch: %s is \"%s\" but %s is "
                 "\"%s\" (regenerate the baseline)\n",
                 old_file.c_str(), old_report.schema.c_str(),
                 new_file.c_str(), new_report.schema.c_str());
    return 2;
  }
  const std::pair<const std::string*, const FlatReport*> inputs[] = {
      {&old_file, &old_report}, {&new_file, &new_report}};
  for (const auto& [file, report] : inputs) {
    for (const std::string& section : report->sections) {
      if (!known_section(section)) {
        std::fprintf(stderr,
                     "report-diff: %s: unknown top-level section \"%s\"\n",
                     file->c_str(), section.c_str());
        return 2;
      }
    }
  }
  const DiffResult result = diff_reports(old_report, new_report, options);
  const std::string table = render_diff(result, options);
  if (table.empty()) {
    std::printf("report-diff: %zu metrics compared, no differences\n",
                result.compared);
  } else {
    std::printf("report-diff: %s vs %s\n%s", old_file.c_str(),
                new_file.c_str(), table.c_str());
  }
  return result.ok() ? 0 : 1;
}

}  // namespace mac3d
