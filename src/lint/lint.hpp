// mac3d lint — repo-specific static analysis (docs/STATIC_ANALYSIS.md).
//
// The repo's hardest-won guarantee — bit-identical serial/event
// execution (docs/PARALLELISM.md) — and its observability vocabulary
// (docs/OBSERVABILITY.md) are enforced dynamically by the equivalence
// suite and byte-diff tests, which catch a violation long after the
// offending line lands. This subsystem makes the contracts
// machine-checkable at review time: a lightweight tokenizer
// (lint/lexer.hpp) feeds a rule catalog in three families —
//
//   DET   determinism: no ambient randomness, wall clocks, hash-order
//         iteration or hidden static state in simulation code;
//   OBS   observability vocabulary: metric names parse against
//         docs/metrics_schema.json, stage names are members of the
//         10-stage taxonomy;
//   SYNC  docs/code coherence: the invariant catalog, stage taxonomy and
//         metric grammar each live in two places that must agree.
//
// Findings emit as text and SARIF and are gated by a committed baseline
// (tools/lint_baseline.json) with the same 0/1/2 exit contract as
// `mac3d report-diff`: pre-existing triaged findings pass, new ones fail.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mac3d::lint {

// ---- Rule catalog --------------------------------------------------------

struct RuleInfo {
  std::string_view id;       ///< stable dotted id, e.g. "det.rand_source"
  std::string_view family;   ///< "DET" | "OBS" | "SYNC"
  std::string_view summary;  ///< one-line description for --list-rules/SARIF
};

/// The full rule catalog, in stable id order.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();

/// Catalog lookup (nullptr for an unknown id).
[[nodiscard]] const RuleInfo* find_rule(std::string_view id);

// ---- Findings ------------------------------------------------------------

struct Finding {
  std::string rule;         ///< rule id from the catalog
  std::string file;         ///< root-relative path, '/' separators
  std::uint32_t line = 0;   ///< 1-based (0 for whole-file findings)
  std::uint32_t col = 0;
  std::string message;
  bool suppressed = false;  ///< matched by a baseline entry
};

struct LintReport {
  std::vector<Finding> findings;      ///< sorted by (file, line, rule)
  std::vector<std::string> errors;    ///< IO trouble; nonempty => exit 2
  std::size_t files_scanned = 0;
  std::size_t new_findings = 0;       ///< findings not covered by baseline
  /// Baseline entries whose findings no longer occur (candidates for
  /// removal; reported as notes, never failures).
  std::vector<std::string> stale_baseline;
};

/// Run every rule over the repo rooted at `root` (expects `src/`, `apps/`
/// and `docs/` beneath it). Scans deterministically (sorted paths) so two
/// runs over the same tree emit byte-identical output.
[[nodiscard]] LintReport run_rules(const std::string& root);

// ---- Baseline ------------------------------------------------------------

/// One triaged allowance: up to `count` findings of `rule` in `file` are
/// expected and pass. `justification` documents why they are acceptable.
struct BaselineEntry {
  std::string rule;
  std::string file;
  std::uint64_t count = 0;
  std::string justification;
};

struct Baseline {
  std::vector<BaselineEntry> entries;
};

/// Load a committed baseline (schema mac3d-lint-baseline/1). Returns
/// false with a one-line `error` on IO/parse/schema trouble.
[[nodiscard]] bool load_baseline(const std::string& file, Baseline& out,
                                 std::string& error);

/// Mark up to `count` findings per (rule, file) entry as suppressed, set
/// `new_findings` to the remainder, and record stale entries.
void apply_baseline(const Baseline& baseline, LintReport& report);

/// Serialize the report's current findings as a baseline document (used
/// by --write-baseline; justifications default to "unreviewed").
[[nodiscard]] std::string baseline_json(const LintReport& report);

// ---- Output --------------------------------------------------------------

/// SARIF 2.1.0 document: every finding as a result (suppressed ones carry
/// a `suppressions` entry), the full rule catalog as tool.driver.rules.
[[nodiscard]] std::string sarif_json(const LintReport& report);

/// Human-readable rendering: one line per finding plus a summary.
[[nodiscard]] std::string render_text(const LintReport& report);

// ---- CLI -----------------------------------------------------------------

struct LintCliOptions {
  std::string root = ".";
  std::string baseline;        ///< --baseline FILE (optional gate)
  std::string sarif;           ///< --sarif FILE (optional artifact)
  std::string write_baseline;  ///< --write-baseline FILE (regenerate)
  bool list_rules = false;
};

/// Full `mac3d lint` entry point. Exit codes mirror `mac3d report-diff`:
/// 0 clean (no new findings), 1 new findings, 2 usage/IO/parse trouble.
[[nodiscard]] int run_lint_cli(const LintCliOptions& options);

}  // namespace mac3d::lint
