// Figure 16: space overhead of the Request Aggregator vs ARQ entries
// (512 B at 8 entries to 16 KB at 256 entries, O(n) comparators), plus the
// fixed 14 B Request Builder (FLIT map + FLIT table) and the paper's total
// of 2062 B for the 32-entry design point.
#include <cstdio>

#include "bench_common.hpp"
#include "mac/coalescer.hpp"
#include "mem/hmc_device.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig16_space_overhead");
  print_banner("Figure 16: MAC space overhead");

  Table table({"ARQ entries", "ARQ storage", "comparators", "builder",
               "total MAC"});
  for (std::uint32_t entries : {8u, 16u, 32u, 64u, 128u, 256u}) {
    SimConfig config;
    config.apply_env();
    config.arq_entries = entries;
    HmcDevice device(config);
    MacCoalescer mac(config, device);
    table.add_row({std::to_string(entries),
                   Table::bytes(mac.arq().storage_bytes()),
                   std::to_string(mac.arq().comparators()),
                   Table::bytes(mac.builder().storage_bytes()),
                   Table::bytes(mac.storage_bytes())});
  }
  table.print();

  SimConfig config;
  HmcDevice device(config);
  MacCoalescer mac(config, device);
  print_reference("ARQ range 8 -> 256 entries", "512 B -> 16 KB",
                  "see table");
  print_reference("request builder (FLIT map + table)", "14 B",
                  Table::bytes(mac.builder().storage_bytes()));
  print_reference("total at 32 entries", "2062 B",
                  Table::bytes(mac.storage_bytes()));
  return session.finish();
}
