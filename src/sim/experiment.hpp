// Experiment harness shared by the per-figure benchmark binaries: runs the
// twelve-workload suite through the requested memory paths and gathers
// every metric the paper's figures report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "common/parse_number.hpp"
#include "sim/driver.hpp"
#include "workloads/workload.hpp"

namespace mac3d {

struct SuiteOptions {
  SimConfig config;
  std::uint32_t threads = 8;   ///< interleaved thread streams fed to the MAC
  double scale = 1.0;          ///< workload dataset scale
  std::uint64_t seed = 42;
  bool run_raw = true;
  bool run_mac = true;
  bool run_mshr = false;
  bool run_warp = false;
  std::vector<std::string> only;  ///< restrict to these workloads if set
  /// Worker threads for the suite (docs/PARALLELISM.md): workloads are
  /// independent runs, so run_jobs runs them concurrently and each writes
  /// its registry-order slot — output is identical for any jobs value.
  /// 0 = hardware concurrency; 1 = one at a time, as whenever `drive`
  /// carries a check or telemetry hook (DriveOptions::hooks_attached).
  std::uint32_t jobs = 1;
  /// Per-run driver options (engine, feed mode, tag pool, hooks). The
  /// suite forwards it to every run_policy call; each path's geometry
  /// comes from `config`.
  DriveOptions drive;
};

/// Trace-level characteristics kept per run (Fig. 9 ingredients).
struct TraceSummary {
  std::uint64_t records = 0;
  std::uint64_t instructions = 0;
  std::uint64_t memory_refs = 0;
  std::uint64_t main_memory_refs = 0;
  std::uint64_t spm_refs = 0;
  double requests_per_instruction = 0.0;
  double mem_access_rate = 0.0;
};

struct WorkloadRun {
  std::string name;
  TraceSummary trace;
  DriverResult raw;   ///< valid if options.run_raw
  DriverResult mac;   ///< valid if options.run_mac
  DriverResult mshr;  ///< valid if options.run_mshr
  DriverResult warp;  ///< valid if options.run_warp

  /// The run for `policy` (valid only if the matching run_* flag was set).
  [[nodiscard]] const DriverResult& result(CoalescerPolicy policy) const {
    switch (policy) {
      case CoalescerPolicy::kRaw: return raw;
      case CoalescerPolicy::kMshr: return mshr;
      case CoalescerPolicy::kWarp: return warp;
      case CoalescerPolicy::kMac: break;
    }
    return mac;
  }
};

/// Generate each workload's trace once and run it through the requested
/// paths. Results come back in registry (figure) order.
[[nodiscard]] std::vector<WorkloadRun> run_suite(const SuiteOptions& options);

/// Run task(0) .. task(count - 1) on at most min(jobs, count) threads, the
/// caller's included; each thread takes the next index until none is
/// left. jobs == 0 means the hardware concurrency. Every thread is joined
/// before the first exception a task threw is rethrown, so every other
/// task has run by then.
void run_jobs(std::size_t count, std::uint32_t jobs,
              const std::function<void(std::size_t)>& task);

/// What the run-size inputs accept; each environment variable below and
/// its CLI flag share one range. Thread streams and nodes: ThreadId and
/// NodeId are 16-bit.
inline constexpr NumberRange<std::uint32_t> kIdCount{1, 65536};
/// Workers: at most one OS thread per run; 0 = the default.
inline constexpr NumberRange<std::uint32_t> kWorkers{0, 256};
/// Dataset scale: positive, and bounded so that every workload's scaled
/// element count (WorkloadParams::scaled; bases stay below 2^23) fits in
/// 64 bits with room to spare.
inline constexpr NumberRange<double> kScale{0.0, 1e6, true};

// The readers below return the default when the variable is unset or
// empty, and throw ConfigError naming the variable when its value is
// malformed or outside the range above.

/// Workload scale from MAC3D_SCALE in kScale (default 1.0; the benches
/// honour it so users can approach paper-sized runs).
[[nodiscard]] double env_scale();

/// Thread count from MAC3D_THREADS in kIdCount (default = `fallback`).
[[nodiscard]] std::uint32_t env_threads(std::uint32_t fallback = 8);

/// Worker count from MAC3D_JOBS in kWorkers (0 or unset = `fallback`).
[[nodiscard]] std::uint32_t env_jobs(std::uint32_t fallback = 1);

/// A command-line argument inside `range`; throws ConfigError naming the
/// argument and what is accepted otherwise (the examples' argv reader).
template <typename T>
[[nodiscard]] T parse_arg(std::string_view text, const NumberRange<T>& range) {
  const std::optional<T> value = parse_number<T>(text, range);
  if (!value) {
    throw ConfigError(std::string(text) + ": want " + range.describe());
  }
  return *value;
}

/// Default suite options: Table 1 config + env overrides applied.
[[nodiscard]] SuiteOptions default_suite_options();

}  // namespace mac3d
