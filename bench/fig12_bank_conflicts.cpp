// Figure 12: bank-conflict reduction per workload (raw path vs MAC).
// Paper (full-size inputs): ~644 million conflicts removed on average,
// 7.73 billion total; NQUEENS and SP notably high. Absolute counts scale
// with trace length (MAC3D_SCALE); the per-workload shape and the
// fraction of conflicts removed are the scale-free comparison points.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig12_bank_conflicts");
  print_banner("Figure 12: bank conflict reduction");
  SuiteOptions options = default_suite_options();
  const auto runs = run_suite(options);

  Table table({"workload", "raw conflicts", "MAC conflicts", "removed",
               "removed %"});
  std::uint64_t total_removed = 0;
  for (const WorkloadRun& run : runs) {
    const std::uint64_t removed = bank_conflict_reduction(run.raw, run.mac);
    total_removed += removed;
    const double fraction =
        run.raw.bank_conflicts == 0
            ? 0.0
            : static_cast<double>(removed) /
                  static_cast<double>(run.raw.bank_conflicts);
    table.add_row({bench::label(run.name),
                   Table::count(run.raw.bank_conflicts),
                   Table::count(run.mac.bank_conflicts),
                   Table::count(removed), Table::pct(fraction)});
  }
  table.print();
  std::printf("total conflicts removed: %s (average %s per workload)\n",
              Table::count(total_removed).c_str(),
              Table::count(total_removed / runs.size()).c_str());
  print_reference("paper totals (full-size inputs)",
                  "7.73 B total, 644 M average", "scaled run above");
  return session.finish();
}
