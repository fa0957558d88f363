// mac3d — command-line front end to the simulator.
//
// Run any workload (or a saved trace) through any memory path with any
// configuration, and print a table or machine-readable CSV:
//
//   mac3d run  --workload sg --paths raw,mac --threads 8 --scale 1.0
//   mac3d run  --trace /tmp/sg.trace --paths mac --csv
//   mac3d suite --scale 0.5                  # the full 12-workload sweep
//   mac3d trace --workload mg --out mg.trace # dump a trace for replay
//   mac3d list                               # available workloads
//   mac3d config                             # effective Table-1 config
//
// Config overrides compose from MAC3D_CONFIG and repeated --set key=value.
// Every flag is one row of kFlags, which drives the argv walker and the
// usage text. A malformed flag, value or override prints one line and
// exits 2.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "arch/system.hpp"
#include "check/check.hpp"
#include "common/parse_number.hpp"
#include "lint/lint.hpp"
#include "obs/analysis.hpp"
#include "obs/latency.hpp"
#include "obs/lifecycle.hpp"
#include "obs/profiler.hpp"
#include "obs/report_diff.hpp"
#include "obs/run_report.hpp"
#include "obs/sampler.hpp"
#include "obs/snapshot.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace mac3d;

struct Command;

/// Every flag's value; a field keeps its default unless its flag is given
/// (kFlags documents each one).
struct CliOptions {
  const Command* command = nullptr;
  std::vector<std::string> operands;  ///< report-diff OLD NEW, analyze REPORT
  std::string workload = "sg";
  std::string trace_path;
  std::string out_path;
  std::string paths = "raw,mac";
  std::uint32_t threads = 0;  ///< 0 = config.cores
  std::uint32_t nodes = 0;    ///< 0 = config.nodes
  double scale = 1.0;
  std::uint64_t seed = 42;
  bool csv = false;
  std::string feed = "streaming";
  std::string policy;  ///< "" = config.policy
  bool checks = false;
  bool profile = false;
  std::string engine = "event";
  std::uint32_t jobs = 0;
  std::uint32_t tag_pool = 0;
  std::string trace_events;
  std::uint64_t sample_every = 0;  ///< 0 = off (or 64 with --sample-out)
  std::string sample_out;
  std::string report_path;
  std::uint64_t snapshot_every = 0;  ///< 0 = off (or 1024 when implied)
  std::string snapshot_out;
  bool watchdog = false;
  std::uint64_t watchdog_windows = 3;
  std::uint64_t inject_livelock = 0;  ///< 0 = off
  std::vector<std::string> node_policies;
  std::vector<std::string> overrides;
  // report-diff
  double diff_tolerance = DiffOptions{}.tolerance_pct;
  std::vector<std::string> ignore;
  bool allow_missing = false;
  // analyze
  std::string snapshots;
  std::string json_out;
  double analyze_tolerance = AnalysisOptions{}.tolerance_pct;
  // lint
  std::string lint_root = lint::LintCliOptions{}.root;
  std::string baseline;
  std::string sarif;
  std::string write_baseline;
  bool list_rules = false;
};

// ---- Flags -----------------------------------------------------------------

template <typename T>
using Number = NumberField<CliOptions, T>;

/// Where a flag's value goes: a switch, text, a repeatable list, a number.
using FlagTarget =
    std::variant<bool CliOptions::*, std::string CliOptions::*,
                 std::vector<std::string> CliOptions::*, Number<std::uint32_t>,
                 Number<std::uint64_t>, Number<double>>;

/// Bit per subcommand; a flag lists the commands that accept it.
enum : unsigned {
  kRun = 1u << 0,
  kSuite = 1u << 1,
  kSystem = 1u << 2,
  kTrace = 1u << 3,
  kList = 1u << 4,
  kConfig = 1u << 5,
  kReportDiff = 1u << 6,
  kAnalyze = 1u << 7,
  kLint = 1u << 8,
  kSim = kRun | kSuite | kSystem | kTrace | kList | kConfig,
  // The commands that read each kind of flag: the ones that build a
  // SimConfig, generate traces, run an engine, or attach a Session.
  kConfigured = kRun | kSuite | kSystem | kTrace | kConfig,
  kTraced = kRun | kSuite | kSystem | kTrace,
  kEngines = kRun | kSuite | kSystem,
  kObserved = kRun | kSystem,
};

struct Flag {
  std::string_view name;
  std::string_view metavar;  ///< empty for a switch
  std::string_view help;     ///< '\n' continues on the next line
  unsigned commands;
  FlagTarget target;
  /// Text flags: the accepted values, '|'-separated ("" = any), and with
  /// `list` a comma-separated list of them.
  std::string_view choices = {};
  bool list = false;
};

constexpr std::string_view kPolicies = "raw|mac|mshr|warp";
constexpr NumberRange<std::uint64_t> kAtLeastOne{1};

// kIdCount, kWorkers and kScale (sim/experiment.hpp) also bound the
// MAC3D_THREADS, MAC3D_JOBS and MAC3D_SCALE environment variables.
const Flag kFlags[] = {
    {"--workload", "NAME", "workload to trace (default sg)",
     kRun | kSystem | kTrace, &CliOptions::workload},
    {"--trace", "FILE", "replay a saved trace instead",
     kRun | kSystem | kTrace, &CliOptions::trace_path},
    {"--out", "FILE", "output trace file", kTrace,
     &CliOptions::out_path},
    {"--paths", "a,b,c", "raw | mac | mshr | warp (default raw,mac)", kRun,
     &CliOptions::paths, kPolicies, true},
    {"--policy", "P",
     "coalescer policy raw | mac | mshr | warp\n"
     "(sets config.policy; run: implies --paths P)",
     kRun | kSystem, &CliOptions::policy, kPolicies},
    {"--threads", "N", "thread streams (default: cores)", kTraced,
     Number<std::uint32_t>{&CliOptions::threads, kIdCount}},
    {"--nodes", "N", "NUMA nodes (default: config)", kSystem | kConfig,
     Number<std::uint32_t>{&CliOptions::nodes, kIdCount}},
    {"--scale", "X", "dataset scale (default 1.0)", kTraced,
     Number<double>{&CliOptions::scale, kScale}},
    {"--seed", "N", "workload seed (default 42)", kTraced,
     Number<std::uint64_t>{&CliOptions::seed}},
    {"--set", "key=value", "config override (repeatable)", kConfigured,
     &CliOptions::overrides},
    {"--feed", "MODE",
     "streaming | closed-loop | lane-group (SIMT lockstep\n"
     "groups of config.warp_lanes threads)",
     kRun, &CliOptions::feed, "streaming|closed-loop|lane-group"},
    {"--engine", "E",
     "serial | event (default: event; serial is the reference;\n"
     "--jobs runs independent runs in parallel)",
     kEngines, &CliOptions::engine, "serial|event"},
    {"--jobs", "N", "run paths (run) / workloads (suite) as N parallel tasks",
     kRun | kSuite, Number<std::uint32_t>{&CliOptions::jobs, kWorkers}},
    {"--tag-pool", "N",
     "streaming feeder: outstanding tags per thread (0 = 64 K)",
     kRun | kSuite, Number<std::uint32_t>{&CliOptions::tag_pool, {0, 65536}}},
    {"--checks", "", "run model-invariant checks (docs/INVARIANTS.md)",
     kObserved, &CliOptions::checks},
    {"--profile", "",
     "idle-cycle census, per-stage residency and host wall-clock", kObserved,
     &CliOptions::profile},
    {"--csv", "", "machine-readable output", kEngines, &CliOptions::csv},
    {"--trace-events", "F",
     "write Chrome/Perfetto trace-event JSON (docs/OBSERVABILITY.md)",
     kObserved, &CliOptions::trace_events},
    {"--sample-every", "N", "sample occupancy probes every N cycles",
     kObserved,
     Number<std::uint64_t>{&CliOptions::sample_every, kAtLeastOne}},
    {"--sample-out", "F", "write the sampled time series as CSV", kObserved,
     &CliOptions::sample_out},
    {"--report", "F", "write a machine-readable run report (JSON)",
     kObserved, &CliOptions::report_path},
    {"--snapshot-every", "N",
     "stream windowed telemetry snapshots every N cycles", kObserved,
     Number<std::uint64_t>{&CliOptions::snapshot_every, kAtLeastOne}},
    {"--snapshot-out", "F",
     "write the snapshot stream (mac3d-snapshot/1 JSONL)", kObserved,
     &CliOptions::snapshot_out},
    {"--watchdog", "",
     "abandon the run (exit 1) after N observed windows\n"
     "with zero completions while work is in flight",
     kObserved, &CliOptions::watchdog},
    {"--watchdog-windows", "N", "stalled windows before firing (default 3)",
     kObserved,
     Number<std::uint64_t>{&CliOptions::watchdog_windows, kAtLeastOne}},
    {"--inject-livelock", "C",
     "fault injection: stop draining completions at\n"
     "cycle C (requires --watchdog)",
     kRun, Number<std::uint64_t>{&CliOptions::inject_livelock, kAtLeastOne}},
    {"--node-policy", "I=P",
     "heterogeneous nodes: node I runs policy P\n"
     "(repeatable; others use --policy)",
     kSystem | kConfig, &CliOptions::node_policies},
    {"--tolerance", "PCT", "report-diff: relative tolerance in % (default 0)",
     kReportDiff,
     Number<double>{&CliOptions::diff_tolerance, kNonNegative<double>}},
    {"--ignore", "PATH|SECTION|GLOB",
     "report-diff: skip matching metrics (repeatable)", kReportDiff,
     &CliOptions::ignore},
    {"--allow-missing", "", "report-diff: a metric missing on one side passes",
     kReportDiff, &CliOptions::allow_missing},
    {"--snapshots", "FILE", "analyze: the run's snapshot stream (required)",
     kAnalyze, &CliOptions::snapshots},
    {"--json", "FILE", "analyze: write the analysis as JSON", kAnalyze,
     &CliOptions::json_out},
    {"--tolerance", "PCT", "analyze: Little's-law tolerance in % (default 10)",
     kAnalyze,
     Number<double>{&CliOptions::analyze_tolerance, kNonNegative<double>}},
    {"--root", "DIR", "lint: tree to analyze (default .)", kLint,
     &CliOptions::lint_root},
    {"--baseline", "FILE", "lint: gate on findings not in this baseline", kLint,
     &CliOptions::baseline},
    {"--sarif", "FILE", "lint: write the findings as SARIF", kLint,
     &CliOptions::sarif},
    {"--write-baseline", "FILE", "lint: write the findings as a baseline",
     kLint, &CliOptions::write_baseline},
    {"--list-rules", "", "lint: print the rule catalog", kLint,
     &CliOptions::list_rules},
};

/// `text` split at `separator` ("" gives one empty item).
std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> items;
  for (std::size_t pos = 0;;) {
    const std::size_t end = text.find(separator, pos);
    items.emplace_back(text.substr(pos, end - pos));
    if (end == std::string_view::npos) return items;
    pos = end + 1;
  }
}

/// Stores `value` for `flag`, or throws ConfigError naming the flag and
/// what it accepts.
void set_flag(const Flag& flag, std::string_view value, CliOptions& options) {
  const auto reject = [&](const std::string& want) {
    throw ConfigError(std::string(flag.name) + " " + std::string(value) +
                      ": want " + want);
  };
  std::visit(
      [&](const auto& target) {
        using Target = std::decay_t<decltype(target)>;
        if constexpr (requires { target.range; }) {
          if (!target.set(options, value)) reject(target.range.describe());
        } else if constexpr (std::is_same_v<Target,
                                            std::string CliOptions::*>) {
          const std::vector<std::string> choices = split(flag.choices, '|');
          const std::vector<std::string> items =
              flag.list ? split(value, ',')
                        : std::vector<std::string>{std::string(value)};
          for (const std::string& item : items) {
            if (!flag.choices.empty() &&
                std::find(choices.begin(), choices.end(), item) ==
                    choices.end()) {
              reject(std::string(flag.choices) +
                     (flag.list ? " (comma-separated)" : ""));
            }
          }
          options.*target = std::string(value);
        } else if constexpr (std::is_same_v<Target,
                                            std::vector<std::string>
                                                CliOptions::*>) {
          (options.*target).emplace_back(value);
        }
      },
      flag.target);
}

SimConfig make_config(const CliOptions& options) {
  SimConfig config;
  config.apply_env();
  for (const std::string& override_text : options.overrides) {
    config.parse_override_string(override_text);
  }
  if (!options.policy.empty()) {
    config.parse_override_string("policy=" + options.policy);
  }
  // --nodes must land before validate(): node_policies indices are
  // checked against the final node count.
  if (options.nodes != 0) config.nodes = options.nodes;
  if (!options.node_policies.empty()) {
    // Canonicalize the repeatable I=P flags into the config's
    // "I:P;I:P" string so the override lands in the report's config
    // snapshot (and round-trips through MAC3D_CONFIG).
    std::string joined;
    for (const std::string& entry : options.node_policies) {
      const std::size_t eq = entry.find('=');
      if (eq == std::string::npos) {
        throw ConfigError("--node-policy " + entry + ": want I=" +
                          std::string(kPolicies));
      }
      if (!joined.empty()) joined += ";";
      joined += entry.substr(0, eq) + ":" + entry.substr(eq + 1);
    }
    config.parse_overrides({{"node_policies", joined}});
  }
  config.validate();
  return config;
}

FeedMode drive_feed(const CliOptions& options) {
  if (options.feed == "closed-loop") return FeedMode::kClosedLoop;
  if (options.feed == "lane-group") return FeedMode::kLaneGroup;
  return FeedMode::kStreaming;
}

MemoryTrace make_trace(const CliOptions& options, const SimConfig& config) {
  if (!options.trace_path.empty()) {
    try {
      MemoryTrace trace = load_trace(options.trace_path);
      check_trace_addresses(trace, config);
      return trace;
    } catch (const std::exception& error) {
      throw ConfigError(options.trace_path + ": " + error.what());
    }
  }
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) {
    throw ConfigError("unknown workload '" + options.workload +
                      "' (try `mac3d list`)");
  }
  WorkloadParams params;
  params.threads = options.threads == 0 ? config.cores : options.threads;
  params.scale = options.scale;
  params.seed = options.seed;
  params.config = config;
  return workload->trace(params);
}

/// --engine name -> driver engine for run/suite. Both engines are
/// bit-identical, so the event default is purely a wall-clock choice.
Engine drive_engine(const std::string& name) {
  return name == "serial" ? Engine::kSerial : Engine::kEvent;
}

// ---- Telemetry session -----------------------------------------------------

/// The checks and telemetry `run` and `system` attach
/// (docs/OBSERVABILITY.md), and what both do with them after the run: the
/// sample and snapshot writes, the run report, the watchdog verdict, the
/// --profile tables and the exit status. `paths` names the runs; the
/// System is the one run "system".
class Session {
 public:
  Session(const CliOptions& options, std::vector<std::string> paths,
          bool system)
      : options_(options),
        paths_(std::move(paths)),
        system_(system),
        want_tracer_(!options.trace_events.empty() ||
                     !options.report_path.empty()),
        want_sampler_(options.sample_every > 0 || !options.sample_out.empty()),
        want_snapshot_(options.snapshot_every > 0 ||
                       !options.snapshot_out.empty() || options.watchdog),
        sampler_(options.sample_every == 0 ? 64 : options.sample_every),
        // --watchdog without --snapshot-every rides the default window.
        snapshot_(options.snapshot_every == 0 ? 1024 : options.snapshot_every),
        watchdog_(options.watchdog_windows) {
    if (options.watchdog) snapshot_.attach_watchdog(&watchdog_);
    if (!options.profile) return;
    // One census and one latency decomposer per run, one host profiler for
    // the invocation. The decomposer tees every event into the tracer, so
    // --profile and --trace-events/--report compose.
    censuses_.resize(paths_.size());
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      decomposers_.push_back(std::make_unique<LatencyDecomposer>(
          want_tracer_ ? &tracer_ : nullptr));
      if (!options.trace_events.empty()) {
        decomposers_.back()->attach_trace(&tracer_);
      }
    }
  }
  // The snapshot stream and the decomposers hold addresses of members.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Opens --trace-events; false after printing one line.
  [[nodiscard]] bool open() {
    if (!options_.trace_events.empty() &&
        !tracer_.open_trace(options_.trace_events)) {
      std::fprintf(stderr, "mac3d: cannot open %s for writing\n",
                   options_.trace_events.c_str());
      return false;
    }
    return true;
  }

  [[nodiscard]] bool hooks_attached() const {
    return options_.checks || want_tracer_ || want_sampler_ ||
           want_snapshot_ || options_.profile;
  }
  [[nodiscard]] CheckContext* checks() {
    return options_.checks ? &checks_ : nullptr;
  }
  [[nodiscard]] CycleSampler* sampler() {
    return want_sampler_ ? &sampler_ : nullptr;
  }
  [[nodiscard]] SnapshotStreamer* snapshot() {
    return want_snapshot_ ? &snapshot_ : nullptr;
  }
  [[nodiscard]] HostProfiler* profiler() {
    return options_.profile ? &profiler_ : nullptr;
  }
  [[nodiscard]] ActivityCensus* census(std::size_t run) {
    return options_.profile ? &censuses_[run] : nullptr;
  }

  /// Opens run `run`'s trace window and returns its event sink: the
  /// decomposer under --profile (it tees into the tracer), the tracer, or
  /// nullptr.
  [[nodiscard]] EventSink* begin_run(std::size_t run) {
    if (want_tracer_) tracer_.begin_path(paths_[run]);
    if (options_.profile) return decomposers_[run].get();
    return want_tracer_ ? &tracer_ : nullptr;
  }

  /// After the runs: --sample-out, --snapshot-out and --report. `stats`
  /// holds each run's StatSet; `system` and `summary` are the System and
  /// its run (nullptr for `run`). False after printing one line.
  [[nodiscard]] bool write(const SimConfig& config, const MemoryTrace& trace,
                           std::string_view feed, std::uint32_t threads,
                           const std::vector<StatSet>& stats,
                           const System* system,
                           const SystemRunSummary* summary) {
    tracer_.finish();
    if (!options_.sample_out.empty() &&
        !sampler_.write_csv(options_.sample_out)) {
      return cannot_write(options_.sample_out);
    }
    if (!options_.snapshot_out.empty() &&
        !snapshot_.write(options_.snapshot_out)) {
      return cannot_write(options_.snapshot_out);
    }
    if (options_.report_path.empty()) return true;
    RunReport report;
    report.set_string("workload", options_.trace_path.empty()
                                      ? options_.workload
                                      : options_.trace_path);
    report.set_string("feed_mode", feed);
    report.set_number("threads", static_cast<double>(threads));
    if (summary != nullptr) {
      report.set_number("nodes", static_cast<double>(config.nodes));
    }
    report.set_number("scale", options_.scale);
    report.set_number("seed", static_cast<double>(options_.seed));
    report.set_number("trace_records", static_cast<double>(trace.size()));
    if (summary != nullptr) {
      report.set_number("cycles", static_cast<double>(summary->cycles));
      report.set_bool("completed", summary->completed);
    }
    report.set_number("wall_seconds",
                      std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start_)
                          .count());
    report.set_number("telemetry_monotonicity_errors",
                      static_cast<double>(tracer_.monotonicity_errors()));
    report.set_number("telemetry_completeness_errors",
                      static_cast<double>(tracer_.completeness_errors()));
    report.set_number("telemetry_abandoned_records",
                      static_cast<double>(tracer_.abandoned_records()));
    report.set_number("telemetry_in_flight_at_end",
                      static_cast<double>(tracer_.in_flight_at_end()));
    if (summary != nullptr) {
      report.set_number("telemetry_hop_events",
                        static_cast<double>(tracer_.hop_events()));
    }
    if (options_.watchdog) report.set_raw("watchdog", watchdog_.to_json());
    if (options_.checks) {
      StatSet check_stats;
      checks_.collect(check_stats, "checks");
      report.set_raw("checks", check_stats.to_json());
    }
    report.set_config(config);
    if (system != nullptr) {
      StatSet metrics;
      system->collect_metrics(*summary, metrics);
      report.set_metrics(metrics);
    }
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      const std::string& path = paths_[i];
      report.set_path_stats(path, stats[i]);
      const LifecycleTracer::PathTelemetry* telemetry = tracer_.path(path);
      if (telemetry == nullptr) continue;
      report.set_path_request_latency(path, telemetry->request_latency);
      for (std::size_t s = 0; s < kStageCount; ++s) {
        if (telemetry->stage_latency[s].count() == 0) continue;
        report.add_path_stage(path, to_string(static_cast<Stage>(s)),
                              telemetry->stage_latency[s]);
      }
    }
    if (options_.profile) {
      // Keyed per run, like the "paths" section. The census export is
      // printed (and traced) but not folded into the report: the `node0.*`
      // namespaces of several runs would collide.
      std::string latency_json = "{";
      for (std::size_t i = 0; i < paths_.size(); ++i) {
        if (i != 0) latency_json += ",";
        latency_json += "\"" + paths_[i] + "\":" + decomposers_[i]->to_json();
      }
      report.set_latency(latency_json + "}");
      report.set_host(profiler_.to_json());
    }
    return report.write(options_.report_path) ||
           cannot_write(options_.report_path);
  }

  /// Prints the watchdog verdict, then `csv` under --csv, or `text`, the
  /// --profile tables, `tail` and the checks report. Returns the exit
  /// status: 1 on a violated check or a fired watchdog, else 0.
  int finish(const StatSet& csv, const std::function<void()>& text,
             const std::function<void()>& tail) {
    const int watchdog_exit = options_.watchdog && watchdog_.fired() ? 1 : 0;
    if (watchdog_exit != 0) {
      std::fprintf(stderr,
                   "mac3d: watchdog fired at cycle %llu (%llu consecutive "
                   "windows with zero completions, work in flight)\n",
                   static_cast<unsigned long long>(watchdog_.fired_at()),
                   static_cast<unsigned long long>(
                       watchdog_.stalled_windows()));
    }
    const bool violated = options_.checks && checks_.violations() != 0;
    if (options_.csv) {
      std::cout << csv.to_csv();
      return violated ? 1 : watchdog_exit;
    }
    text();
    if (options_.profile) {
      for (std::size_t i = 0; i < paths_.size(); ++i) {
        const std::string label = system_ ? "" : "[" + paths_[i] + "] ";
        std::printf("\n%sidle-cycle census (dead time %.1f%%)\n%s",
                    label.c_str(), 100.0 * censuses_[i].dead_time_fraction(),
                    censuses_[i].to_table().c_str());
        std::printf("\n%sper-stage residency\n%s", label.c_str(),
                    decomposers_[i]->to_table().c_str());
      }
      std::printf("\nhost wall-clock attribution\n%s",
                  profiler_.to_table().c_str());
    }
    tail();
    if (!options_.checks) return watchdog_exit;
    std::printf("\n%s", checks_.report().c_str());
    return violated ? 1 : watchdog_exit;
  }

 private:
  static bool cannot_write(const std::string& file) {
    std::fprintf(stderr, "mac3d: cannot write %s\n", file.c_str());
    return false;
  }

  const CliOptions& options_;
  const std::vector<std::string> paths_;
  const bool system_;
  const bool want_tracer_;
  const bool want_sampler_;
  const bool want_snapshot_;
  const std::chrono::steady_clock::time_point wall_start_ =
      std::chrono::steady_clock::now();
  CheckContext checks_{CheckContext::FailMode::kCount};
  LifecycleTracer tracer_;
  CycleSampler sampler_;
  SnapshotStreamer snapshot_;
  StallWatchdog watchdog_;
  HostProfiler profiler_;
  std::vector<ActivityCensus> censuses_;
  std::vector<std::unique_ptr<LatencyDecomposer>> decomposers_;
};

int cmd_run(const CliOptions& cli) {
  // --policy narrows the default path list (an explicit --paths wins).
  const std::vector<std::string> paths = split(
      !cli.policy.empty() && cli.paths == CliOptions{}.paths ? cli.policy
                                                             : cli.paths,
      ',');
  if (cli.inject_livelock != 0 && !cli.watchdog) {
    throw ConfigError(
        "--inject-livelock requires --watchdog (the faulted run would never "
        "terminate)");
  }
  Session session(cli, paths, false);
  std::string feed = cli.feed;  // "closed-loop" reports as "closed_loop"
  std::replace(feed.begin(), feed.end(), '-', '_');
  const SimConfig config = make_config(cli);
  const std::uint32_t threads = cli.threads == 0 ? config.cores : cli.threads;
  const MemoryTrace trace = make_trace(cli, config);
  if (!session.open()) return 2;

  DriveOptions drive;
  drive.mode = drive_feed(cli);
  drive.engine = drive_engine(cli.engine);
  drive.tag_pool = cli.tag_pool;
  drive.checks = session.checks();
  drive.sampler = session.sampler();
  drive.snapshot = session.snapshot();
  drive.inject_livelock_at = cli.inject_livelock;
  drive.profiler = session.profiler();

  std::vector<CoalescerPolicy> policies(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    (void)parse_policy(paths[i], policies[i]);  // --paths checked the names
  }
  std::vector<DriverResult> results(paths.size());
  // Paths are independent runs over the same (immutable) trace, so --jobs
  // runs them concurrently — unless checks or telemetry are attached,
  // which force one run at a time (docs/PARALLELISM.md). Without them,
  // begin_run and census return nullptr and touch nothing.
  const std::uint32_t jobs = cli.jobs == 0 ? env_jobs(1) : cli.jobs;
  run_jobs(paths.size(), session.hooks_attached() ? 1 : jobs,
           [&](std::size_t i) {
             DriveOptions options = drive;
             options.sink = session.begin_run(i);
             options.census = session.census(i);
             results[i] = run_policy(policies[i], trace, config, threads,
                                     options);
           });

  std::vector<StatSet> stats(results.size());
  StatSet csv;
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].collect(stats[i], results[i].path);
    results[i].collect(csv, results[i].path);
  }
  if (CheckContext* checks = session.checks()) checks->collect(csv, "checks");
  if (!session.write(config, trace, feed, threads, stats, nullptr, nullptr)) {
    return 2;
  }
  const auto text = [&] {
    print_banner("mac3d run: " +
                 (cli.trace_path.empty() ? cli.workload : cli.trace_path));
    std::printf("%s records, %u threads, scale %.2f, %s feed\n\n",
                Table::count(trace.size()).c_str(), threads, cli.scale,
                feed.c_str());
    Table table({"path", "packets", "coal. eff", "bw eff", "avg packet",
                 "bank conflicts", "avg latency", "makespan"});
    for (const DriverResult& result : results) {
      table.add_row(
          {result.path, Table::count(result.packets),
           Table::pct(result.coalescing_efficiency()),
           Table::pct(result.bandwidth_efficiency()),
           Table::bytes(static_cast<std::uint64_t>(result.avg_packet_bytes)),
           Table::count(result.bank_conflicts),
           Table::fmt(result.avg_latency_cycles, 0) + " cy",
           Table::count(result.makespan) + " cy"});
    }
    table.print();
  };
  const auto speedups = [&] {
    if (results.size() < 2 || results[0].path != "raw") return;
    for (std::size_t i = 1; i < results.size(); ++i) {
      std::printf("memory speedup %s vs raw: %s\n", results[i].path.c_str(),
                  Table::pct(memory_speedup(results[0], results[i])).c_str());
    }
  };
  return session.finish(csv, text, speedups);
}

int cmd_suite(const CliOptions& options) {
  SuiteOptions suite;
  suite.config = make_config(options);
  suite.threads = options.threads == 0 ? suite.config.cores : options.threads;
  suite.scale = options.scale;
  suite.seed = options.seed;
  suite.jobs = options.jobs == 0 ? env_jobs(1) : options.jobs;
  suite.drive.engine = drive_engine(options.engine);
  suite.drive.tag_pool = options.tag_pool;
  const auto runs = run_suite(suite);
  if (options.csv) {
    // Plain numbers (no thousands separators) to keep the CSV parseable.
    std::printf(
        "workload,raw_packets,mac_packets,coalescing_efficiency,"
        "bandwidth_efficiency,speedup\n");
    for (const WorkloadRun& run : runs) {
      std::printf("%s,%llu,%llu,%.6f,%.6f,%.6f\n", run.name.c_str(),
                  static_cast<unsigned long long>(run.raw.packets),
                  static_cast<unsigned long long>(run.mac.packets),
                  run.mac.coalescing_efficiency(),
                  run.mac.bandwidth_efficiency(),
                  memory_speedup(run.raw, run.mac));
    }
    return 0;
  }
  Table table({"workload", "raw packets", "MAC packets", "coal. eff",
               "bw eff", "speedup"});
  for (const WorkloadRun& run : runs) {
    table.add_row({run.name, Table::count(run.raw.packets),
                   Table::count(run.mac.packets),
                   Table::pct(run.mac.coalescing_efficiency()),
                   Table::pct(run.mac.bandwidth_efficiency()),
                   Table::pct(memory_speedup(run.raw, run.mac))});
  }
  print_banner("mac3d suite");
  table.print();
  return 0;
}

// Closed-loop multi-node System run (paper Sec. 3): the command that
// exercises the full distributed observability stack — per-node metric
// namespaces, fabric link counters, cross-node flow arrows and the /2
// report's "metrics" section.
int cmd_system(const CliOptions& options) {
  Session session(options, {"system"}, true);
  const SimConfig config = make_config(options);  // applies --nodes
  const MemoryTrace trace = make_trace(options, config);
  if (!session.open()) return 2;

  System system(config);
  system.attach_trace(trace);
  if (CheckContext* checks = session.checks()) system.attach_checks(checks);
  if (EventSink* sink = session.begin_run(0)) system.attach_sink(sink);
  system.attach_census(session.census(0));
  system.attach_profiler(session.profiler());
  system.attach_sampler(session.sampler());
  system.attach_snapshot(session.snapshot());

  // Both engines are bit-identical; --engine serial is the strict
  // reference.
  const SystemRunSummary summary =
      options.engine == "serial" ? system.run() : system.run_event();
  if (CheckContext* checks = session.checks()) checks->finalize();

  if (!session.write(config, trace, "closed_loop", trace.threads(),
                     {summary.stats}, &system, &summary)) {
    return 2;
  }
  const auto text = [&] {
    print_banner("mac3d system: " + (options.trace_path.empty()
                                         ? options.workload
                                         : options.trace_path));
    std::printf(
        "%u nodes, %u threads, %s records, %s engine\n"
        "cycles %s%s, requests %s, completions %s, avg latency %.0f cy\n"
        "visited cycles %s, node ticks %s\n",
        config.nodes, trace.threads(), Table::count(trace.size()).c_str(),
        options.engine.c_str(), Table::count(summary.cycles).c_str(),
        summary.completed ? "" : " (cycle limit hit)",
        Table::count(summary.requests).c_str(),
        Table::count(summary.completions).c_str(), summary.avg_latency_cycles,
        Table::count(summary.visited_cycles).c_str(),
        Table::count(summary.node_ticks).c_str());
  };
  return session.finish(summary.stats, text, [] {});
}

/// Exit 0 when the reports agree, 1 on a difference, 2 on IO/parse trouble
/// (docs/OBSERVABILITY.md §report-diff).
int cmd_report_diff(const CliOptions& options) {
  DiffOptions diff;
  diff.tolerance_pct = options.diff_tolerance;
  diff.ignore.insert(diff.ignore.end(), options.ignore.begin(),
                     options.ignore.end());
  diff.fail_on_missing = !options.allow_missing;
  return run_report_diff(options.operands[0], options.operands[1], diff);
}

/// Post-run bottleneck diagnosis over a run report plus its snapshot stream
/// (docs/OBSERVABILITY.md §analyze). Exit 0 clean, 1 when the watchdog
/// fired or a conservation audit fails, 2 on IO/parse/usage trouble.
int cmd_analyze(const CliOptions& options) {
  if (options.snapshots.empty()) {
    throw ConfigError("analyze needs --snapshots FILE");
  }
  AnalysisOptions analysis;
  analysis.tolerance_pct = options.analyze_tolerance;
  return run_analyze(options.operands[0], options.snapshots, options.json_out,
                     analysis);
}

/// The repo's static analyzer (docs/STATIC_ANALYSIS.md); exit codes like
/// report-diff.
int cmd_lint(const CliOptions& options) {
  lint::LintCliOptions lint;
  lint.root = options.lint_root;
  lint.baseline = options.baseline;
  lint.sarif = options.sarif;
  lint.write_baseline = options.write_baseline;
  lint.list_rules = options.list_rules;
  return lint::run_lint_cli(lint);
}

int cmd_trace(const CliOptions& options) {
  const SimConfig config = make_config(options);
  const MemoryTrace trace = make_trace(options, config);
  const std::string out = options.out_path.empty()
                              ? options.workload + ".trace"
                              : options.out_path;
  save_trace(trace, out);
  std::printf("wrote %s records (%u threads) to %s\n",
              Table::count(trace.size()).c_str(), trace.threads(),
              out.c_str());
  return 0;
}

int cmd_list(const CliOptions& /*options*/) {
  for (const Workload* workload : workload_registry()) {
    std::printf("%-10s %s\n", workload->name().c_str(),
                workload->description().c_str());
  }
  return 0;
}

int cmd_config(const CliOptions& options) {
  const SimConfig config = make_config(options);
  std::printf("%s", config.to_table().c_str());
  return 0;
}

// ---- Command line ----------------------------------------------------------

struct Command {
  std::string_view name;
  unsigned bit;
  std::string_view operands;  ///< positional arguments, e.g. "OLD NEW"
  std::size_t operand_count;
  int (*run)(const CliOptions&);
};

constexpr Command kCommands[] = {
    {"run", kRun, "", 0, cmd_run},
    {"suite", kSuite, "", 0, cmd_suite},
    {"system", kSystem, "", 0, cmd_system},
    {"trace", kTrace, "", 0, cmd_trace},
    {"list", kList, "", 0, cmd_list},
    {"config", kConfig, "", 0, cmd_config},
    {"report-diff", kReportDiff, "OLD NEW", 2, cmd_report_diff},
    {"analyze", kAnalyze, "REPORT", 1, cmd_analyze},
    {"lint", kLint, "", 0, cmd_lint},
};

/// The usage text, rendered from kCommands and kFlags.
void usage() {
  std::string text = "usage: mac3d <";
  for (const Command& command : kCommands) {
    if ((command.bit & kSim) == 0) continue;
    if (command.bit != kRun) text += '|';
    text += command.name;
  }
  text += "> [options]\n";
  for (const Command& command : kCommands) {
    if ((command.bit & kSim) != 0) continue;
    text += "       mac3d " + std::string(command.name);
    if (!command.operands.empty()) text += " " + std::string(command.operands);
    for (const Flag& flag : kFlags) {
      if ((flag.commands & command.bit) == 0) continue;
      text += " [" + std::string(flag.name);
      if (!flag.metavar.empty()) text += " " + std::string(flag.metavar);
      text += "]";
    }
    text += "\n";
  }
  for (const Flag& flag : kFlags) {
    std::string head = "  " + std::string(flag.name);
    if (!flag.metavar.empty()) head += " " + std::string(flag.metavar);
    head.resize(std::max<std::size_t>(head.size() + 1, 20), ' ');
    std::string_view help = flag.help;
    for (std::size_t nl; (nl = help.find('\n')) != std::string_view::npos;) {
      text += head + std::string(help.substr(0, nl)) + "\n";
      head.assign(20, ' ');
      help.remove_prefix(nl + 1);
    }
    // A simulation flag names the commands that take it.
    std::string takers;
    for (const Command& command : kCommands) {
      if ((command.bit & kSim & flag.commands) == 0) continue;
      takers += (takers.empty() ? " [" : "|") + std::string(command.name);
    }
    text += head + std::string(help) + takers + (takers.empty() ? "\n" : "]\n");
  }
  std::fputs(text.c_str(), stderr);
}

/// The one argv walker: every subcommand's flags come from kFlags. Throws
/// ConfigError on an unknown option, a missing or malformed value, or the
/// wrong number of operands; nullopt when there is no known command.
std::optional<CliOptions> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  CliOptions options;
  for (const Command& command : kCommands) {
    if (command.name == argv[1]) options.command = &command;
  }
  if (options.command == nullptr) return std::nullopt;
  const Command& command = *options.command;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      options.operands.emplace_back(arg);
      continue;
    }
    const auto flag = std::find_if(
        std::begin(kFlags), std::end(kFlags), [&](const Flag& candidate) {
          return candidate.name == arg && (candidate.commands & command.bit);
        });
    if (flag == std::end(kFlags)) {
      throw ConfigError("unknown option " + std::string(arg) + " for " +
                        std::string(command.name));
    }
    if (flag->metavar.empty()) {
      options.*std::get<bool CliOptions::*>(flag->target) = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw ConfigError("missing value for " + std::string(arg));
    }
    set_flag(*flag, argv[++i], options);
  }
  if (options.operands.size() != command.operand_count) {
    throw ConfigError(std::string(command.name) + " takes " +
                      (command.operands.empty()
                           ? std::string("no operands")
                           : std::string(command.operands)) +
                      ", got " + std::to_string(options.operands.size()) +
                      " (run mac3d without arguments for usage)");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::optional<CliOptions> options = parse(argc, argv);
    if (!options) {
      usage();
      return 2;
    }
    return options->command->run(*options);
  } catch (const ConfigError& error) {
    // Malformed input: a flag, a value, a config override, a trace file.
    std::fprintf(stderr, "mac3d: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mac3d: %s\n", error.what());
    return 1;
  }
}
