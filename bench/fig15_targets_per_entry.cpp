// Figure 15: average merged targets per ARQ entry.
// Paper: ~2.13 average across the suite, 3.14 at most — far below the
// 12-target capacity of a 64 B entry, so the entry size is sufficient.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig15_targets_per_entry");
  print_banner("Figure 15: average targets per ARQ entry");
  SuiteOptions options = default_suite_options();
  options.run_raw = false;
  const auto runs = run_suite(options);

  SimConfig config = options.config;
  Table table({"workload", "avg targets/entry", "peak entry"});
  double sum = 0.0;
  double best = 0.0;
  for (const WorkloadRun& run : runs) {
    sum += run.mac.avg_targets_per_entry;
    best = std::max(best, run.mac.avg_targets_per_entry);
    table.add_row({bench::label(run.name),
                   Table::fmt(run.mac.avg_targets_per_entry, 2),
                   Table::fmt(run.mac.max_targets_per_entry, 0)});
  }
  table.print();
  std::printf("entry capacity: %u targets (%u B entry, 4.5 B per target)\n",
              config.max_targets_per_entry(), config.arq_entry_bytes);
  print_reference("suite average", "2.13",
                  Table::fmt(sum / static_cast<double>(runs.size()), 2));
  print_reference("largest per-workload average", "3.14", Table::fmt(best, 2));
  return session.finish();
}
