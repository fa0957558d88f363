// Figure 10: coalescing efficiency per workload at 2 / 4 / 8 threads.
// Paper: averages 48.37% (2), 50.51% (4), 52.86% (8); MG, GRAPPOLO, SG,
// SP and SPARSELU above 60% at 8 threads.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig10_coalescing_efficiency");
  print_banner("Figure 10: coalescing efficiency vs thread count");
  const std::uint32_t thread_counts[] = {2, 4, 8};

  std::vector<bench::SuiteSeries> series;
  for (const std::uint32_t threads : thread_counts) {
    SuiteOptions options = default_suite_options();
    options.threads = threads;
    options.run_raw = false;  // efficiency needs only the MAC path
    series.push_back(bench::run_series(options));
  }

  Table table({"workload", "2 threads", "4 threads", "8 threads"});
  for (std::size_t w = 0; w < series[0].runs.size(); ++w) {
    table.add_row({bench::label(series[0].runs[w].name),
                   Table::pct(series[0].runs[w].mac.coalescing_efficiency()),
                   Table::pct(series[1].runs[w].mac.coalescing_efficiency()),
                   Table::pct(series[2].runs[w].mac.coalescing_efficiency())});
  }
  table.add_row({"AVERAGE", Table::pct(series[0].mean_coalescing),
                 Table::pct(series[1].mean_coalescing),
                 Table::pct(series[2].mean_coalescing)});
  table.print();
  session.set_number("mean_coalescing_2t", series[0].mean_coalescing);
  session.set_number("mean_coalescing_4t", series[1].mean_coalescing);
  session.set_number("mean_coalescing_8t", series[2].mean_coalescing);
  print_reference("average at 2/4/8 threads", "48.37% / 50.51% / 52.86%",
                  Table::pct(series[0].mean_coalescing) + " / " +
                      Table::pct(series[1].mean_coalescing) + " / " +
                      Table::pct(series[2].mean_coalescing));
  return session.finish();
}
