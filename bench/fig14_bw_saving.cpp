// Figure 14: bandwidth saved by request aggregation — link bytes the raw
// path transfers that the MAC path does not (mostly per-packet control).
// Paper (full-size inputs): 22.76 GB average per workload. Absolute bytes
// scale with trace length; the per-workload shape and the saved fraction
// are the scale-free comparison points.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig14_bw_saving");
  print_banner("Figure 14: bandwidth saving");
  SuiteOptions options = default_suite_options();
  const auto runs = run_suite(options);

  Table table({"workload", "raw link bytes", "MAC link bytes", "saved",
               "saved %"});
  std::uint64_t total = 0;
  for (const WorkloadRun& run : runs) {
    const std::uint64_t saved = bandwidth_saving_bytes(run.raw, run.mac);
    total += saved;
    const double fraction =
        run.raw.link_bytes == 0
            ? 0.0
            : static_cast<double>(saved) /
                  static_cast<double>(run.raw.link_bytes);
    table.add_row({bench::label(run.name), Table::bytes(run.raw.link_bytes),
                   Table::bytes(run.mac.link_bytes), Table::bytes(saved),
                   Table::pct(fraction)});
  }
  table.print();
  std::printf("average saved per workload: %s\n",
              Table::bytes(total / runs.size()).c_str());
  print_reference("paper average (full-size inputs)", "22.76 GB",
                  "scaled run above");
  return session.finish();
}
