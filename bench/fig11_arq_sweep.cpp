// Figure 11: the impact of the number of ARQ entries on coalescing
// efficiency. Paper: 37.58% -> 56.04% from 8 to 256 entries, with
// strongly diminishing returns (+22.11% to 16, +15.72% to 32, +5.53% to
// 64) — 32 entries is the chosen design point.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig11_arq_sweep");
  print_banner("Figure 11: coalescing efficiency vs ARQ entries");
  const std::uint32_t entry_counts[] = {8, 16, 32, 64, 128, 256};

  Table table({"ARQ entries", "mean coalescing efficiency", "gain"});
  double previous = 0.0;
  for (const std::uint32_t entries : entry_counts) {
    SuiteOptions options = default_suite_options();
    options.config.arq_entries = entries;
    options.run_raw = false;
    const bench::SuiteSeries series = bench::run_series(options);
    const double gain =
        previous == 0.0 ? 0.0 : (series.mean_coalescing - previous) /
                                    previous;
    table.add_row({std::to_string(entries),
                   Table::pct(series.mean_coalescing),
                   previous == 0.0 ? std::string("-") : Table::pct(gain)});
    previous = series.mean_coalescing;
  }
  table.print();
  print_reference("range over sweep", "37.58% -> 56.04%", "see table");
  print_reference("diminishing returns past 32 entries", "+5.53% at 64",
                  "see gain column");
  return session.finish();
}
