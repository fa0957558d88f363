// Figure 13: measured bandwidth efficiency (Eq. 1 over the whole run) of
// the coalesced transactions vs the 16 B raw requests.
// Paper: 70.35% average with MAC vs 33.33% raw — a >2x improvement;
// control overhead falls from 66.67% to 29.65%.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig13_bw_efficiency");
  print_banner("Figure 13: bandwidth efficiency, MAC vs raw");
  SuiteOptions options = default_suite_options();
  const auto runs = run_suite(options);

  Table table({"workload", "raw", "MAC", "improvement"});
  double sum = 0.0;
  for (const WorkloadRun& run : runs) {
    const double raw = run.raw.bandwidth_efficiency();
    const double mac = run.mac.bandwidth_efficiency();
    sum += mac;
    table.add_row({bench::label(run.name), Table::pct(raw), Table::pct(mac),
                   Table::fmt(mac / raw, 2) + "x"});
  }
  const double avg = sum / static_cast<double>(runs.size());
  session.set_number("mean_bandwidth_efficiency", avg);
  for (const WorkloadRun& run : runs) {
    session.set_number("bandwidth_efficiency." + run.name,
                       run.mac.bandwidth_efficiency());
  }
  table.print();
  print_reference("average MAC bandwidth efficiency", "70.35%",
                  Table::pct(avg));
  print_reference("raw 16 B requests", "33.33%", "see raw column");
  print_reference("control overhead with MAC", "29.65%",
                  Table::pct(1.0 - avg));
  return session.finish();
}
