// Ablation (paper Sec. 4.3, applicability): the MAC on other 3D-stacked
// geometries. HMC 1.0 capped packets at 128 B; HMC 2.1 rows are 256 B;
// HBM pages are 1 KB (the paper: the MAC supports them by enlarging the
// FLIT map and FLIT table, with no change to the coalescing logic).
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "ablation_row_size");
  print_banner("Ablation: row/page size (HMC 1.0 / HMC 2.1 / HBM)");

  Table table({"device", "row", "FLIT map bits", "mean eff", "mean bw eff",
               "mean packet"});
  struct Geometry {
    const char* name;
    std::uint32_t row_bytes;
  };
  for (const Geometry& geometry :
       {Geometry{"HMC 1.0 (128B max)", 128}, Geometry{"HMC 2.1 (256B)", 256},
        Geometry{"HMC future (512B)", 512}, Geometry{"HBM (1KB page)", 1024}}) {
    SuiteOptions options = default_suite_options();
    options.config.row_bytes = geometry.row_bytes;
    options.run_raw = false;
    const auto runs = run_suite(options);
    double eff = 0.0;
    double bw = 0.0;
    double packet = 0.0;
    for (const WorkloadRun& run : runs) {
      eff += run.mac.coalescing_efficiency();
      bw += run.mac.bandwidth_efficiency();
      packet += run.mac.avg_packet_bytes;
    }
    const auto n = static_cast<double>(runs.size());
    table.add_row({geometry.name, Table::bytes(geometry.row_bytes),
                   std::to_string(geometry.row_bytes / kFlitBytes),
                   Table::pct(eff / n), Table::pct(bw / n),
                   Table::bytes(static_cast<std::uint64_t>(packet / n))});
  }
  table.print();
  return session.finish();
}
