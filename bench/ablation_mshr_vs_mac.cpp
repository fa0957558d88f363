// Ablation (paper Sec. 2.3): the MAC's variable-size packets vs the
// conventional fixed-64 B MSHR-style coalescer and the raw path. The MSHR
// baseline merges outstanding requests to the same 64 B block but always
// dispatches cache-line-sized transactions, so it cannot reach the large
// packet sizes the 3D-stacked memory favours — and a 64 B packet still
// pays 33% control overhead (Fig. 3).
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "ablation_mshr_vs_mac");
  print_banner("Ablation: MAC vs MSHR-64B vs raw");
  SuiteOptions options = default_suite_options();
  options.run_mshr = true;
  const auto runs = run_suite(options);

  // Note: the MSHR file throttles intake while full (stall-on-allocate),
  // which keeps its device latencies artificially low; the makespan
  // columns show the throughput cost of that throttling.
  Table table({"workload", "eff MAC", "eff MSHR", "bw MAC", "bw MSHR",
               "makespan MAC", "makespan MSHR"});
  double mac_sum = 0.0;
  double mshr_sum = 0.0;
  for (const WorkloadRun& run : runs) {
    mac_sum += memory_speedup(run.raw, run.mac);
    mshr_sum += memory_speedup(run.raw, run.mshr);
    table.add_row({bench::label(run.name),
                   Table::pct(run.mac.coalescing_efficiency()),
                   Table::pct(run.mshr.coalescing_efficiency()),
                   Table::pct(run.mac.bandwidth_efficiency()),
                   Table::pct(run.mshr.bandwidth_efficiency()),
                   Table::count(run.mac.makespan) + " cy",
                   Table::count(run.mshr.makespan) + " cy"});
  }
  table.print();
  std::printf("average transaction-latency speedup: MAC %s vs MSHR %s\n",
              Table::pct(mac_sum / static_cast<double>(runs.size())).c_str(),
              Table::pct(mshr_sum / static_cast<double>(runs.size())).c_str());
  std::printf(
      "MSHR packets are fixed 64 B (bandwidth efficiency cap %s); the MAC\n"
      "adapts 64-256 B per row (cap %s).\n",
      Table::pct(64.0 / 96.0).c_str(), Table::pct(256.0 / 288.0).c_str());
  return session.finish();
}
