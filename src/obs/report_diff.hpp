// report-diff: the perf-regression half of the observability stack.
//
// Parses two run-report JSON files (schemas mac3d-run-report/1 through
// /4), flattens every numeric leaf to a dotted path
// ("paths.mac.stats.bw", "metrics.node3.router.remote_in"), and compares
// them metric-by-metric against a relative tolerance. Non-numeric leaves
// (schema string, config tokens) participate as exact-match strings.
// `wall_seconds` and the /3 `host` section (wall-clock attribution) are
// ignored by construction — they are the only fields two identical runs
// legitimately disagree on. The CLI entry (run_report_diff) fails loudly
// with exit 2 — never a silent pass — when the two reports carry
// different schema versions or when either contains an unknown top-level
// section. Backs `mac3d report-diff` and bench --baseline
// (bench_common.hpp).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace mac3d {

/// A report flattened to path -> leaf maps: parse_report reads the
/// document with common/json.hpp's parse_json and walks the tree.
struct FlatReport {
  std::string schema;
  std::map<std::string, double> numbers;  ///< dotted path -> numeric leaf
  std::map<std::string, std::string> strings;
  /// Top-level object-valued keys in document order ("config", "paths",
  /// ...) — the section inventory run_report_diff validates.
  std::vector<std::string> sections;
};

/// Parse `json` into a FlatReport. Returns false (with a one-line message
/// in `error`) on malformed JSON or an unrecognized schema; accepts
/// mac3d-run-report/1 through /4 and reports missing "schema" as an
/// error.
bool parse_report(const std::string& json, FlatReport& out,
                  std::string& error);

/// Flatten ANY JSON document (no schema requirement — `out.schema` is
/// whatever "schema" string leaf the document carries, or empty). Same
/// dotted-path leaf maps as parse_report; used by `mac3d analyze` to walk
/// arbitrary report/snapshot-derived structures.
bool flatten_json(const std::string& json, FlatReport& out,
                  std::string& error);

/// Read + parse a report file (false on IO or parse failure).
bool load_report(const std::string& file, FlatReport& out, std::string& error);

/// One compared metric. `relative` is |new-old| / max(|old|, |new|), or 0
/// when both are 0; infinite when a side is missing.
struct MetricDelta {
  std::string path;
  double old_value = 0.0;
  double new_value = 0.0;
  double relative = 0.0;
  bool only_old = false;   ///< metric disappeared
  bool only_new = false;   ///< metric appeared
  bool out_of_tolerance = false;
};

struct DiffOptions {
  /// Relative tolerance in percent: |delta| <= tolerance_pct% passes.
  double tolerance_pct = 0.0;
  /// Metrics appearing on only one side fail the diff when true.
  bool fail_on_missing = true;
  /// Paths excluded from comparison. Three forms per entry:
  ///  - no '*': matches the exact dotted path OR any leaf under it as a
  ///    section prefix ("metrics" skips metrics.* too);
  ///  - with '*': a wildcard glob over the full dotted path, '*' matching
  ///    any run of characters including dots ("metrics.node*.router.*").
  std::vector<std::string> ignore = {"wall_seconds"};
};

struct DiffResult {
  std::vector<MetricDelta> deltas;       ///< every differing/missing metric
  std::size_t compared = 0;              ///< numeric metrics on both sides
  std::size_t out_of_tolerance = 0;
  std::vector<std::string> string_mismatches;  ///< non-numeric leaf diffs
  [[nodiscard]] bool ok() const noexcept {
    return out_of_tolerance == 0 && string_mismatches.empty();
  }
};

/// Compare two flattened reports. String leaves are compared exactly but
/// never gate ok() unless they differ (the "schema" leaf itself is
/// skipped here — bench::Session tolerates an older-schema baseline; the
/// CLI entry below does not). The `host` section is skipped by name:
/// wall-clock attribution never gates a diff.
DiffResult diff_reports(const FlatReport& old_report,
                        const FlatReport& new_report,
                        const DiffOptions& options);

/// Render the diff as a human table (empty string when nothing differs).
std::string render_diff(const DiffResult& result, const DiffOptions& options);

/// Full CLI entry: load both files, validate, diff, print table to
/// stdout. Exit codes: 0 in-tolerance, 1 out-of-tolerance, 2 on
/// usage/IO/parse trouble, mismatched schema versions between the two
/// reports, or an unknown top-level section in either (fail-loud: a
/// half-understood report must never silently pass).
int run_report_diff(const std::string& old_file, const std::string& new_file,
                    const DiffOptions& options);

}  // namespace mac3d
