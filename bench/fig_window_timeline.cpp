// Windowed telemetry timeline over the multi-node closed-loop system run
// (docs/OBSERVABILITY.md §streaming snapshots): stream delta-encoded
// in-run snapshots at a fixed cycle period, then feed the stream through
// the same analyzer that backs `mac3d analyze`. The headline numbers are
// the analyzer's verdicts — window count, mean in-flight, Little's-law
// dwell, the per-window critical stage — so the baseline gate covers the
// whole telemetry pipeline: probe registration, boundary landing,
// delta encoding, stream parsing and diagnosis.
//
// `--snapshot-out FILE` additionally writes the raw JSONL stream (the CI
// telemetry-smoke job uploads it as an artifact).
#include <algorithm>
#include <cstdio>
#include <string>

#include "arch/system.hpp"
#include "bench_common.hpp"
#include "obs/analysis.hpp"
#include "obs/profiler.hpp"
#include "obs/snapshot.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig_window_timeline");
  std::string snapshot_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--snapshot-out" && i + 1 < argc) snapshot_out = argv[++i];
  }
  print_banner("Window timeline: streamed snapshots + analysis, 4-node system");

  const SuiteOptions base = default_suite_options();
  SimConfig config = base.config;
  config.nodes = 4;
  config.validate();
  const Workload* workload = find_workload("sg");
  WorkloadParams params;
  params.threads = base.threads;
  params.scale = base.scale;
  params.config = config;
  const MemoryTrace trace = workload->trace(params);

  System system(config);
  system.attach_trace(trace);
  ActivityCensus census;
  system.attach_census(&census);
  SnapshotStreamer snapshot(4096);
  StallWatchdog watchdog(3);
  snapshot.attach_watchdog(&watchdog);
  system.attach_snapshot(&snapshot);
  const SystemRunSummary summary = system.run();

  if (!snapshot_out.empty() && !snapshot.write(snapshot_out)) {
    std::fprintf(stderr, "fig_window_timeline: cannot write %s\n",
                 snapshot_out.c_str());
    return 2;
  }

  // Feed the stream straight back through the `mac3d analyze` machinery —
  // parse errors or a conservation failure here are a pipeline bug, not a
  // performance regression, so they exit 2 rather than tripping the gate.
  SnapshotStream stream;
  std::string error;
  if (!parse_snapshot_stream(snapshot.str(), stream, error)) {
    std::fprintf(stderr, "fig_window_timeline: %s\n", error.c_str());
    return 2;
  }
  const FlatReport no_report;
  const AnalysisResult analysis =
      analyze_stream(no_report, stream, AnalysisOptions{});
  if (analysis.runs.size() != 1 || !analysis.runs[0].stream_conserved) {
    std::fprintf(stderr, "fig_window_timeline: stream conservation failed\n");
    return 2;
  }
  const RunAnalysis& run = analysis.runs[0];

  std::uint64_t peak_completions = 0;
  for (const WindowDiagnosis& w : run.windows) {
    peak_completions = std::max(peak_completions, w.completions_delta);
  }

  std::printf(
      "windows %zu (period 4096 cy), end cycle %llu\n"
      "throughput %.6g completions/cycle, mean in-flight %.6g\n"
      "queue dwell %.6g cy (Little's law), peak window completions %llu\n"
      "critical stage %s\n",
      run.windows.size(), static_cast<unsigned long long>(run.end_cycle),
      run.throughput, run.mean_in_flight, run.derived_latency,
      static_cast<unsigned long long>(peak_completions),
      run.critical_component.empty() ? "(none)"
                                     : run.critical_component.c_str());

  // All simulated-time numbers — deterministic at a fixed MAC3D_SCALE.
  session.set_number("cycles", static_cast<double>(summary.cycles));
  session.set_number("requests", static_cast<double>(summary.requests));
  session.set_number("windows", static_cast<double>(run.windows.size()));
  session.set_number("throughput", run.throughput);
  session.set_number("mean_in_flight", run.mean_in_flight);
  session.set_number("derived_latency_cycles", run.derived_latency);
  session.set_number("peak_window_completions",
                     static_cast<double>(peak_completions));
  session.set_number("stalled_windows",
                     static_cast<double>(watchdog.stalled_windows()));
  session.set_number("critical_windows",
                     static_cast<double>(run.critical_windows));
  session.set_string("critical_stage", run.critical_component);
  return session.finish();
}
