// Idle-cycle census over the multi-node closed-loop system run
// (docs/OBSERVABILITY.md §profiler): how much of every component's
// lifetime is dead time. The dead-time fraction is the sizing evidence
// for the ROADMAP's event-driven fast-forward engine — a cycle the
// engine can prove dead for every component is a cycle it can skip.
//
// `--census-out FILE` additionally writes the full per-component census
// as JSON (the CI perf-smoke job uploads it as an artifact).
#include <cstdio>
#include <fstream>
#include <string>

#include "arch/system.hpp"
#include "bench_common.hpp"
#include "obs/profiler.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "idle_census");
  std::string census_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--census-out" && i + 1 < argc) census_out = argv[++i];
  }
  print_banner("Idle-cycle census: per-component dead time, 4-node system");

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
  HostProfiler profiler;
  system.attach_census(&census);
  system.attach_profiler(&profiler);
  const SystemRunSummary summary = system.run();

  std::printf("%s", census.to_table().c_str());
  std::printf("\nhost wall-clock attribution\n%s",
              profiler.to_table().c_str());

  if (!census_out.empty()) {
    std::ofstream out(census_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "idle_census: cannot write %s\n",
                   census_out.c_str());
      return 2;
    }
    out << census.to_json() << "\n";
  }

  // Headline numbers for the baseline gate: all simulated-time, so they
  // are deterministic. Host wall-clock stays out of the report fields.
  std::uint64_t active = 0;
  std::uint64_t idle = 0;
  for (const ActivityCensus::Row& row : census.rows()) {
    active += row.active_cycles;
    idle += row.idle_cycles;
  }
  session.set_number("cycles", static_cast<double>(summary.cycles));
  session.set_number("requests", static_cast<double>(summary.requests));
  session.set_number("components", static_cast<double>(census.rows().size()));
  session.set_number("active_cycles_total", static_cast<double>(active));
  session.set_number("idle_cycles_total", static_cast<double>(idle));
  session.set_number("dead_time_fraction", census.dead_time_fraction());
  return session.finish();
}
