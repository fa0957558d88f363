// RunReport: assembles the machine-readable end-of-run artifact
// (`--report out.json`): config snapshot, seed/workload identity, per-path
// StatSets, per-stage latency histograms with quantiles, check-violation
// counts and wall-clock. Stable JSON: object keys appear in insertion
// order, path/stage sections sorted by name, numbers at full precision.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"

namespace mac3d {

class RunReport {
 public:
  /// Schema identity stamped into every report. /2 added the optional
  /// "metrics" section (System::collect_metrics); /3 added the optional
  /// "latency" (per-stage residency decomposition) and "host" (wall-clock
  /// attribution, exempt from diffing) sections; /4 added the optional
  /// "watchdog" section (stall-watchdog verdict) and the node_policies
  /// config key. Readers (report-diff) still accept /1 through /3.
  static constexpr std::string_view kSchema = "mac3d-run-report/4";
  static constexpr std::string_view kSchemaV3 = "mac3d-run-report/3";
  static constexpr std::string_view kSchemaV2 = "mac3d-run-report/2";
  static constexpr std::string_view kSchemaV1 = "mac3d-run-report/1";

  RunReport();

  // ---- Top-level fields (insertion order preserved) ----------------------
  void set_string(const std::string& key, std::string_view value);
  void set_number(const std::string& key, double value);
  void set_bool(const std::string& key, bool value);
  /// Set a pre-rendered JSON value (object/array/number) for `key`.
  void set_raw(const std::string& key, std::string json);

  /// Full config snapshot under "config" (SimConfig::to_kv round-trip).
  void set_config(const SimConfig& config);

  /// Render `metrics` under "metrics", one name per line in sorted order
  /// (the /2 schema addition).
  void set_metrics(const StatSet& metrics);

  /// Pre-rendered JSON object for the "latency" section (the /3 addition:
  /// LatencyDecomposer::to_json, or a {"<path>": {...}} wrapper of them).
  void set_latency(std::string json) { latency_json_ = std::move(json); }

  /// Pre-rendered JSON object for the "host" section (the /3 addition:
  /// HostProfiler::to_json). Wall-clock numbers only — report-diff skips
  /// this section by name, so it never gates a baseline.
  void set_host(std::string json) { host_json_ = std::move(json); }

  // ---- Per-path sections (rendered under "paths") ------------------------
  void set_path_stats(const std::string& path, const StatSet& stats);
  /// Attach one stage-latency histogram, e.g. stage "bank_access".
  void add_path_stage(const std::string& path, std::string_view stage,
                      const Histogram& hist);
  void set_path_request_latency(const std::string& path,
                                const Histogram& hist);

  /// Histogram -> JSON with count/min/max, p50/p90/p99 quantiles and the
  /// trimmed power-of-two bucket counts.
  [[nodiscard]] static std::string histogram_json(const Histogram& hist);

  [[nodiscard]] std::string to_json() const;
  bool write(const std::string& file) const;

 private:
  struct PathEntry {
    std::string name;
    std::string stats_json;
    std::string request_latency_json;
    std::vector<std::pair<std::string, std::string>> stages;
  };

  PathEntry& path_entry(const std::string& name);

  std::vector<std::pair<std::string, std::string>> fields_;
  std::string config_json_;
  std::string metrics_json_;
  std::string latency_json_;
  std::string host_json_;
  std::vector<PathEntry> paths_;
};

}  // namespace mac3d
