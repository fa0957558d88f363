// Ablation (paper Sec. 4.2): the Request Builder's minimum packet
// granularity. The paper picks 64 B as the trade-off between control
// overhead (small packets) and wasted payload bandwidth (large packets);
// this sweep regenerates that trade-off, including the degenerate
// row-sized-packets point the paper argues against in Sec. 2.3.2.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "ablation_builder_granularity");
  print_banner("Ablation: Request Builder minimum packet granularity");

  Table table({"min packet", "groups", "mean eff", "mean bw eff",
               "mean payload utilization"});
  for (const std::uint32_t min_bytes : {16u, 32u, 64u, 128u, 256u}) {
    SuiteOptions options = default_suite_options();
    options.config.builder_min_bytes = min_bytes;
    options.run_raw = false;
    const auto runs = run_suite(options);
    double eff = 0.0;
    double bw = 0.0;
    double util = 0.0;
    for (const WorkloadRun& run : runs) {
      eff += run.mac.coalescing_efficiency();
      bw += run.mac.bandwidth_efficiency();
      // Useful bytes actually requested vs payload moved.
      util += run.mac.data_bytes == 0
                  ? 0.0
                  : static_cast<double>(run.mac.raw_requests) * 8.0 /
                        static_cast<double>(run.mac.data_bytes);
    }
    const auto n = static_cast<double>(runs.size());
    table.add_row({Table::bytes(min_bytes),
                   std::to_string(256 / min_bytes), Table::pct(eff / n),
                   Table::pct(bw / n), Table::pct(util / n)});
  }
  table.print();
  std::printf(
      "Small minimums keep payload utilization high; large ones maximize\n"
      "Eq. 1 bandwidth efficiency but ship unrequested FLITs (Sec. 2.3.2's\n"
      "argument against 256 B cache lines). 64 B is the paper's choice.\n");
  return session.finish();
}
