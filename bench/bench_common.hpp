// Shared helpers for the per-figure benchmark binaries.
//
// Every binary regenerates one table or figure of the paper. Scale the
// workloads with MAC3D_SCALE (default 1.0 ~ a few hundred thousand memory
// operations per workload; the paper's full-size runs are proportionally
// larger but every reported ratio is scale-free — see DESIGN.md §4).
//
// Each binary defines bench_main(); the main() at the end of this header
// runs it, so malformed input (MAC3D_CONFIG, MAC3D_SCALE, MAC3D_THREADS,
// MAC3D_JOBS, an unknown argument, a flag without its value or a
// --tolerance value) prints one line and exits 2.
#pragma once

#include <algorithm>
#include <cassert>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse_number.hpp"
#include "common/stats.hpp"
#include "obs/report_diff.hpp"
#include "obs/run_report.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "trace/analyzer.hpp"
#include "workloads/all.hpp"

namespace mac3d::bench {

/// Per-binary run-report session (docs/OBSERVABILITY.md §run report).
/// Walks the binary's argv once: `--report FILE`, `--baseline FILE`,
/// `--tolerance PCT` and the value flags the binary declares in `extra`
/// (read back with flag()). With --report, finish() (or the destructor as a
/// safety net) writes a RunReport carrying the benchmark's name, whatever
/// headline numbers the binary recorded via set_number()/set_path_stats(),
/// the effective config (MAC3D_CONFIG applied) and the wall clock. With
/// --baseline, finish() additionally diffs this run against the saved
/// baseline report (report_diff.hpp) and returns nonzero when any metric
/// moved past the tolerance — `return session.finish();` from main() makes
/// every figure binary a regression gate. Without the flags every call is
/// a cheap no-op, so instrumenting a figure binary costs one declaration.
/// The constructor throws ConfigError on an unknown argument, a flag
/// without its value, a malformed --tolerance or MAC3D_CONFIG.
class Session {
 public:
  Session(int argc, char** argv, std::string name,
          std::initializer_list<std::string_view> extra = {})
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
    flags_ = {{"--report", {}}, {"--baseline", {}}, {"--tolerance", {}}};
    for (const std::string_view own : extra) flags_.emplace_back(own, "");
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto found = std::find_if(
          flags_.begin(), flags_.end(),
          [&](const auto& candidate) { return candidate.first == arg; });
      if (found == flags_.end()) {
        throw ConfigError("unknown argument " + std::string(arg));
      }
      if (i + 1 >= argc) {
        throw ConfigError("missing value for " + std::string(arg));
      }
      found->second = argv[++i];
      if (arg != "--tolerance") continue;
      const std::optional<double> tolerance =
          parse_number(found->second, kNonNegative<double>);
      if (!tolerance) {
        throw ConfigError("--tolerance " + found->second + ": want " +
                          kNonNegative<double>.describe());
      }
      tolerance_pct_ = *tolerance;
    }
    report_path_ = flag("--report");
    baseline_path_ = flag("--baseline");
    config_.apply_env();
    report_.set_string("bench", name_);
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session() {
    if (!finished_) write_report();
  }

  /// Write the report (if --report) and check against the baseline (if
  /// --baseline). Returns the process exit code: 0 in-tolerance, 1 when a
  /// baselined metric regressed, 2 on IO/parse trouble.
  int finish() {
    write_report();
    if (baseline_path_.empty()) return 0;
    FlatReport baseline;
    FlatReport current;
    std::string error;
    if (!load_report(baseline_path_, baseline, error) ||
        !parse_report(report_.to_json(), current, error)) {
      std::fprintf(stderr, "%s: baseline check: %s\n", name_.c_str(),
                   error.c_str());
      return 2;
    }
    DiffOptions options;
    options.tolerance_pct = tolerance_pct_;
    options.fail_on_missing = false;  // baselines may predate new metrics
    const DiffResult result = diff_reports(baseline, current, options);
    const std::string table = render_diff(result, options);
    if (!table.empty()) {
      std::printf("%s vs baseline %s:\n%s", name_.c_str(),
                  baseline_path_.c_str(), table.c_str());
    }
    return result.ok() ? 0 : 1;
  }

  [[nodiscard]] bool enabled() const noexcept { return !report_path_.empty(); }

  /// The value given for a declared flag, empty when it was not given.
  [[nodiscard]] const std::string& flag(std::string_view name) const {
    const auto found = std::find_if(
        flags_.begin(), flags_.end(),
        [&](const auto& candidate) { return candidate.first == name; });
    assert(found != flags_.end() && "flag() of an undeclared flag");
    return found->second;
  }

  /// Record a headline number (figure averages, speedups, ...).
  void set_number(const std::string& key, double value) {
    report_.set_number(key, value);
  }
  void set_string(const std::string& key, std::string_view value) {
    report_.set_string(key, value);
  }
  /// Attach a full per-path StatSet under "paths".
  void set_path_stats(const std::string& path, const StatSet& stats) {
    report_.set_path_stats(path, stats);
  }

 private:
  void write_report() {
    finished_ = true;
    report_.set_number(
        "wall_seconds",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count());
    report_.set_config(config_);
    if (report_path_.empty()) return;
    if (!report_.write(report_path_)) {
      std::fprintf(stderr, "%s: cannot write %s\n", name_.c_str(),
                   report_path_.c_str());
    }
  }

  std::string name_;
  /// Every flag this binary takes, with the value given (empty if absent).
  std::vector<std::pair<std::string_view, std::string>> flags_;
  std::string report_path_;
  std::string baseline_path_;
  double tolerance_pct_ = 0.0;
  SimConfig config_;  ///< MAC3D_CONFIG applied, as the report records it
  bool finished_ = false;
  std::chrono::steady_clock::time_point start_;
  RunReport report_;
};

/// Upper-case the workload name the way the paper's figures label them.
inline std::string label(const std::string& name) {
  std::string out = name;
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

/// Collect one efficiency series (all 12 workloads) at a thread count.
/// Workload runs execute on `options.jobs` workers (MAC3D_JOBS via
/// default_suite_options(); output is jobs-invariant, docs/PARALLELISM.md)
/// and the suite wall clock is kept so binaries can report the speedup.
struct SuiteSeries {
  std::vector<WorkloadRun> runs;
  double mean_coalescing = 0.0;
  double mean_bandwidth = 0.0;
  double wall_seconds = 0.0;   ///< suite wall clock at options.jobs workers
  std::uint32_t jobs = 1;      ///< worker count the series ran with
};

inline SuiteSeries run_series(const SuiteOptions& options) {
  SuiteSeries series;
  series.jobs = options.jobs;
  const auto start = std::chrono::steady_clock::now();
  series.runs = run_suite(options);
  series.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::vector<double> coalescing;
  std::vector<double> bandwidth;
  for (const WorkloadRun& run : series.runs) {
    coalescing.push_back(run.mac.coalescing_efficiency());
    bandwidth.push_back(run.mac.bandwidth_efficiency());
  }
  series.mean_coalescing = mean(coalescing);
  series.mean_bandwidth = mean(bandwidth);
  return series;
}

/// Wall-clock speedup of the jobs-parallel suite over the serial suite.
/// Runs the suite twice (jobs = 1, then jobs = `jobs`; 0 = hardware
/// concurrency), so it doubles the bench cost — intended for explicit
/// speedup studies (EXPERIMENTS.md), not for every figure binary.
struct SuiteSpeedup {
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  double speedup = 0.0;
  std::uint32_t jobs = 0;
};

inline SuiteSpeedup measure_suite_speedup(SuiteOptions options,
                                          std::uint32_t jobs = 0) {
  SuiteSpeedup result;
  options.jobs = 1;
  result.serial_seconds = run_series(options).wall_seconds;
  options.jobs = jobs;
  const SuiteSeries parallel = run_series(options);
  result.parallel_seconds = parallel.wall_seconds;
  result.jobs = parallel.jobs;
  result.speedup = result.parallel_seconds > 0.0
                       ? result.serial_seconds / result.parallel_seconds
                       : 0.0;
  return result;
}

}  // namespace mac3d::bench

int bench_main(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const mac3d::ConfigError& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 2;
  }
}
