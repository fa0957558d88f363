// Per-stage latency decomposition (docs/OBSERVABILITY.md §latency):
// where a request's cycles actually go on the raw and MAC paths. The
// LifecycleTracer attributes the delta between consecutive stamped
// stages to the earlier stage's residency histogram, so the table reads
// as "time spent in <stage>", the dual of the run report's per-stage
// "time to reach" histograms, plus a critical-stage attribution (which
// stage dominated each request end to end). One tracer window per path.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/lifecycle.hpp"
#include "sim/driver.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig_latency_breakdown");
  print_banner("Per-stage latency decomposition: raw vs MAC");

  const SuiteOptions base = default_suite_options();
  const Workload* workload = find_workload("sg");
  WorkloadParams params;
  params.threads = base.threads;
  params.scale = base.scale;
  params.config = base.config;
  const MemoryTrace trace = workload->trace(params);

  LifecycleTracer tracer;
  for (const char* path : {"raw", "mac"}) {
    tracer.begin_path(path);
    DriveOptions drive;
    drive.sink = &tracer;
    const DriverResult result =
        std::string(path) == "raw"
            ? run_policy(CoalescerPolicy::kRaw, trace, base.config,
                         base.threads, drive)
            : run_policy(CoalescerPolicy::kMac, trace, base.config,
                         base.threads, drive);
    const LifecycleTracer::PathTelemetry& window = tracer.paths().back();
    std::printf("\n[%s] %llu packets\n%s", path,
                static_cast<unsigned long long>(result.packets),
                window.residency_table().c_str());

    // Baseline-gated headline numbers: quantiles and critical-stage
    // shares per stamped stage, all in simulated cycles (deterministic).
    const std::string prefix = std::string(path) + "_";
    session.set_number(prefix + "requests",
                       static_cast<double>(window.completed));
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const Stage stage = static_cast<Stage>(s);
      const Histogram& hist = window.residency[s];
      if (hist.count() == 0) continue;
      const std::string key = prefix + std::string(to_string(stage));
      session.set_number(key + "_p50",
                         static_cast<double>(hist.quantile(0.50)));
      session.set_number(key + "_p95",
                         static_cast<double>(hist.quantile(0.95)));
      session.set_number(key + "_p99",
                         static_cast<double>(hist.quantile(0.99)));
      session.set_number(key + "_critical",
                         static_cast<double>(window.critical[s]));
    }
  }
  return session.finish();
}
