// Ablation (paper Sec. 2.2.1): page policy. HMC mandates closed-page —
// short 256 B rows make the row buffer cheap to re-open, and keeping the
// 512 banks' rows powered for harvesting would cost too much energy —
// so DDR-style controller-side row-hit aggregation is unavailable and
// coalescing must move to the processor side (the MAC). This sweep makes
// the trade-off concrete: a *hypothetical* open-page HMC would capture
// the same row locality the MAC exploits (high hit rates below, and
// competitive latency), but it must keep rows open across hundreds of
// banks and still pays the full 32 B control overhead on every 16 B
// request — the bandwidth dimension only coalescing can fix.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "ablation_page_policy");
  print_banner("Ablation: page policy (Sec. 2.2.1)");

  SuiteOptions closed = default_suite_options();  // closed page (real HMC)
  SuiteOptions open = closed;
  open.config.open_page = true;
  open.run_mac = false;  // open-page raw path only

  const auto closed_runs = run_suite(closed);
  const auto open_runs = run_suite(open);

  Table table({"workload", "open-page row hits", "raw lat (open)",
               "raw lat (closed)", "MAC lat (closed)"});
  for (std::size_t i = 0; i < closed_runs.size(); ++i) {
    // Row-hit rate of the open-page raw run.
    const double hit_rate =
        open_runs[i].raw.packets == 0
            ? 0.0
            : open_runs[i].raw.row_hit_rate;
    table.add_row({bench::label(closed_runs[i].name), Table::pct(hit_rate),
                   Table::fmt(open_runs[i].raw.device_latency_avg, 0) + " cy",
                   Table::fmt(closed_runs[i].raw.device_latency_avg, 0) +
                       " cy",
                   Table::fmt(closed_runs[i].mac.device_latency_avg, 0) +
                       " cy"});
  }
  table.print();
  std::printf(
      "A hypothetical open-page HMC captures the row locality too -- but\n"
      "it must keep rows open across up to 512 banks (the power cost that\n"
      "makes HMC closed-page, Sec. 2.2.1) and its 16B requests still pay\n"
      "the 32B control overhead per access (bandwidth efficiency pinned\n"
      "at 33%%). Closed-page + MAC reaches ~2/3 bandwidth efficiency and\n"
      "comparable latency without any open rows.\n");
  return session.finish();
}
