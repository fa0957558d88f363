// Figure 17: memory-system speedup — the reduction in the execution
// latency of the HMC memory transactions, measured (as in the paper) by
// the device model with and without MAC over identical traces.
// Paper: 60.73% average; above 70% for MG, GRAPPOLO, SG and SPARSELU.
// The makespan view (time to drain the whole trace) is shown alongside.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig17_speedup");
  print_banner("Figure 17: memory system speedup");
  SuiteOptions options = default_suite_options();
  const auto runs = run_suite(options);

  Table table({"workload", "transaction-latency reduction",
               "makespan reduction", "avg latency raw", "avg latency MAC"});
  double sum = 0.0;
  for (const WorkloadRun& run : runs) {
    const double speedup = memory_speedup(run.raw, run.mac);
    sum += speedup;
    table.add_row({bench::label(run.name), Table::pct(speedup),
                   Table::pct(makespan_speedup(run.raw, run.mac)),
                   Table::fmt(run.raw.device_latency_avg, 0) + " cy",
                   Table::fmt(run.mac.device_latency_avg, 0) + " cy"});
  }
  table.print();
  session.set_number("average_speedup",
                     sum / static_cast<double>(runs.size()));
  print_reference("average speedup", "60.73%",
                  Table::pct(sum / static_cast<double>(runs.size())));
  print_reference("top performers", "> 70% (MG, GRAPPOLO, SG, SPARSELU)",
                  "see table");
  return session.finish();
}
