// Figure 3: bandwidth efficiency and control overhead vs request size
// (Eq. 1). Pure protocol arithmetic: every HMC access pays 32 B of
// header+tail control regardless of payload.
#include <cstdio>

#include "bench_common.hpp"
#include "mem/packet.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig03_bw_model");
  print_banner("Figure 3: bandwidth efficiency and overhead vs request size");
  Table table({"request size", "bandwidth efficiency", "overhead"});
  for (std::uint32_t size = 16; size <= 256; size *= 2) {
    table.add_row({Table::bytes(size), Table::pct(bandwidth_efficiency(size)),
                   Table::pct(overhead_fraction(size))});
  }
  table.print();
  print_reference("efficiency at 16 B", "33.33%",
                  Table::pct(bandwidth_efficiency(16)));
  print_reference("efficiency at 256 B", "88.89%",
                  Table::pct(bandwidth_efficiency(256)));
  print_reference("256 B / 16 B improvement", "2.67x",
                  Table::fmt(bandwidth_efficiency(256) /
                             bandwidth_efficiency(16)) + "x");
  std::printf(
      "\nFig. 2 example: 16 x 16B requests move %llu B on the links, one\n"
      "coalesced 256B request moves %llu B (paper: 768 B vs 288 B).\n",
      static_cast<unsigned long long>(16 * access_link_bytes(16, false)),
      static_cast<unsigned long long>(access_link_bytes(256, false)));
  return session.finish();
}
