// Graph analytics on the cache-less architecture (the paper's motivating
// domain): run the three GAP kernels (BFS, PageRank, connected
// components) through the raw and MAC memory paths and compare every
// headline metric, then profile their access patterns with the trace
// analyzer.
//
// Usage: graph_analytics [scale] [threads]
//   scale in (0, 1e6] (default 0.5), threads in [1, 65536] (default:
//   cores); a malformed argument or MAC3D_CONFIG exits 2.
#include <cstdio>

#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "trace/analyzer.hpp"
#include "workloads/all.hpp"

using namespace mac3d;

int main(int argc, char** argv) try {
  SimConfig config;
  config.apply_env();

  WorkloadParams params;
  params.scale = argc > 1 ? parse_arg(argv[1], kScale) : 0.5;
  params.threads = argc > 2 ? parse_arg(argv[2], kIdCount) : config.cores;
  params.config = config;

  print_banner("Graph analytics through the MAC");
  std::printf("scale %.2f, %u threads\n\n", params.scale, params.threads);

  Table table({"kernel", "records", "ideal coal.", "MAC coal.", "bw eff",
               "conflicts removed", "speedup"});
  for (const Workload* workload :
       {gap_bfs_workload(), gap_pr_workload(), gap_cc_workload()}) {
    const MemoryTrace trace = workload->trace(params);
    const TraceProfile profile = analyze(trace, config, params.threads);
    const DriverResult raw = run_policy(CoalescerPolicy::kRaw, trace, config,
                                        params.threads);
    const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config,
                                        params.threads);
    table.add_row({workload->name(), Table::count(trace.size()),
                   Table::pct(profile.ideal_coalescing),
                   Table::pct(mac.coalescing_efficiency()),
                   Table::pct(mac.bandwidth_efficiency()),
                   Table::count(bank_conflict_reduction(raw, mac)),
                   Table::pct(memory_speedup(raw, mac))});
  }
  table.print();
  std::printf(
      "\n'ideal coal.' is the analyzer's upper bound (an unbounded\n"
      "coalescer over the same window); the MAC column is what the real\n"
      "dual-ported, 32-entry pipeline achieves.\n");
  return 0;
} catch (const ConfigError& error) {
  std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
  return 2;
}
