// Model-invariant checking core (see docs/INVARIANTS.md).
//
// The simulator's credibility rests on conservation laws the paper implies:
// every raw request produces exactly one completion, FLIT-table bytes
// balance against HMC packet payloads, fences order, bank state machines
// stay legal. This subsystem makes those laws first-class: each law is an
// `Invariant` (id + paper reference + severity), components report breaches
// to a shared `CheckContext`, and the context keeps per-invariant counters
// plus the first few failures with full context for debugging.
//
// Cost model: a component holds a `CheckContext*` that is null unless a
// harness attached one, so the hot path pays one predictable branch per
// check site.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace mac3d {

class StatSet;

/// How bad a breach of the invariant is.
enum class Severity : std::uint8_t {
  kWarning,  ///< model-quality concern; the simulation stays meaningful
  kError,    ///< the run's statistics can no longer be trusted
  kFatal,    ///< internal state is corrupt; continuing is meaningless
};

[[nodiscard]] constexpr std::string_view to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
    case Severity::kFatal: return "fatal";
  }
  return "?";
}

/// One model invariant. Instances are compile-time constants (the catalog
/// lives in check/invariants.hpp); identity is the object's address, `id`
/// is the stable dotted name used in stats and reports.
struct Invariant {
  std::string_view id;         ///< e.g. "mac.conservation.one_completion"
  std::string_view summary;    ///< the law that must hold
  std::string_view paper_ref;  ///< paper section that implies it
  Severity severity = Severity::kError;
};

/// One recorded breach (only the first few per context keep full detail).
struct Violation {
  const Invariant* invariant = nullptr;
  Cycle cycle = 0;
  std::string detail;  ///< first-failure context dump

  [[nodiscard]] std::string to_string() const;
};

/// Thrown by CheckContext in FailMode::kThrow.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const Violation& violation)
      : std::runtime_error(violation.to_string()),
        invariant_(violation.invariant) {}

  [[nodiscard]] const Invariant& invariant() const noexcept {
    return *invariant_;
  }

 private:
  const Invariant* invariant_;
};

/// Shared sink for invariant breaches plus end-of-run finalizers.
///
/// A context outlives the components it is attached to only if finalize()
/// runs while they are still alive — the drivers call finalize() before
/// tearing the pipeline down, and finalize() clears the registered hooks
/// so a context can be reused across runs (counters accumulate).
///
/// Not thread-safe: a context serves one run at a time. Both `--jobs`
/// fan-outs (run_suite and `mac3d run`) run one job at a time whenever
/// checks are attached.
class CheckContext {
 public:
  enum class FailMode {
    kCount,  ///< count and remember; the run continues (CLI default)
    kThrow,  ///< throw InvariantViolation on the first breach (tests)
  };

  explicit CheckContext(FailMode mode = FailMode::kCount) : mode_(mode) {}

  /// Record a breach of `invariant` observed at `cycle`.
  /// In kThrow mode this throws and nothing after the call runs.
  void fail(const Invariant& invariant, Cycle cycle, std::string detail);

  /// Cheap per-site instrumentation (how many checks actually ran).
  void count_check() noexcept { ++checks_run_; }

  /// Register an end-of-run hook (e.g. "no request is still in flight").
  /// Hooks may capture components by reference; finalize() must run before
  /// those components are destroyed.
  void on_finalize(std::function<void(CheckContext&)> hook);

  /// Run and clear all registered finalizers.
  void finalize();

  [[nodiscard]] std::uint64_t checks_run() const noexcept {
    return checks_run_;
  }
  [[nodiscard]] std::uint64_t violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t violations(std::string_view id) const;
  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>&
  violations_by_id() const noexcept {
    return by_id_;
  }
  /// First breaches with full context (capped at kMaxStoredFailures).
  [[nodiscard]] const std::vector<Violation>& first_failures() const noexcept {
    return first_failures_;
  }

  /// Human-readable report: totals, per-invariant counts, first failures.
  [[nodiscard]] std::string report() const;

  /// Export `prefix.checks_run`, `prefix.violations` and one counter per
  /// breached invariant into a StatSet.
  void collect(StatSet& out, const std::string& prefix) const;

  static constexpr std::size_t kMaxStoredFailures = 8;

 private:
  FailMode mode_;
  std::uint64_t checks_run_ = 0;
  std::uint64_t violations_ = 0;
  std::map<std::string, std::uint64_t, std::less<>> by_id_;
  std::vector<Violation> first_failures_;
  std::vector<std::function<void(CheckContext&)>> finalizers_;
};

}  // namespace mac3d

// Check-site macro: no-op unless a context is attached; the condition and
// the detail expression are only evaluated when a context is present (the
// detail only when the condition fails).
#define MAC3D_CHECK(ctx, invariant, cond, cycle, detail) \
  do {                                                   \
    if ((ctx) != nullptr) {                              \
      (ctx)->count_check();                              \
      if (!(cond)) (ctx)->fail((invariant), (cycle), (detail)); \
    }                                                    \
  } while (0)
