// Ablation (paper Sec. 4.1): the fill-fast latency-hiding mechanism.
// When armed, requests arriving at a >half-empty ARQ skip the comparators;
// that shortens intake latency after idle periods but suppresses
// aggregation while armed. DESIGN.md explains why the reproduction
// defaults it off.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "ablation_fill_fast");
  print_banner("Ablation: fill-fast latency hiding (Sec. 4.1)");

  Table table({"workload", "eff (fill-fast off)", "eff (fill-fast on)",
               "latency off", "latency on"});

  SuiteOptions off = default_suite_options();
  off.config.fill_fast_enabled = false;
  off.run_raw = false;
  SuiteOptions on = off;
  on.config.fill_fast_enabled = true;
  const auto runs_off = run_suite(off);
  const auto runs_on = run_suite(on);

  for (std::size_t i = 0; i < runs_off.size(); ++i) {
    table.add_row({bench::label(runs_off[i].name),
                   Table::pct(runs_off[i].mac.coalescing_efficiency()),
                   Table::pct(runs_on[i].mac.coalescing_efficiency()),
                   Table::fmt(runs_off[i].mac.avg_latency_cycles, 0) + " cy",
                   Table::fmt(runs_on[i].mac.avg_latency_cycles, 0) + " cy"});
  }
  table.print();
  return session.finish();
}
