// Ablation: feed model. The default trace-streaming driver (the paper's
// Sec. 5.1 methodology — memory instruction stream into the timed MAC)
// vs the execution-driven closed loop of Sec. 3 where threads stall on
// outstanding references. The closed loop desynchronizes threads after
// random-latency accesses, which starves cross-thread coalescing — one
// reason the paper's own evaluation replays traces.
#include <cstdio>

#include "bench_common.hpp"
#include "sim/driver.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "ablation_feed_mode");
  print_banner("Ablation: trace streaming vs execution-driven closed loop");
  SuiteOptions base = default_suite_options();

  Table table({"workload", "eff (streaming)", "eff (closed loop)",
               "targets (s)", "targets (cl)"});
  for (const Workload* workload : workload_registry()) {
    WorkloadParams params;
    params.threads = base.threads;
    params.scale = base.scale;
    params.config = base.config;
    const MemoryTrace trace = workload->trace(params);

    DriveOptions streaming;
    streaming.mode = FeedMode::kStreaming;
    DriveOptions closed;
    closed.mode = FeedMode::kClosedLoop;
    const DriverResult s = run_policy(CoalescerPolicy::kMac, trace, base.config,
                                      base.threads, streaming);
    const DriverResult c = run_policy(CoalescerPolicy::kMac, trace, base.config,
                                      base.threads, closed);
    table.add_row({bench::label(workload->name()),
                   Table::pct(s.coalescing_efficiency()),
                   Table::pct(c.coalescing_efficiency()),
                   Table::fmt(s.avg_targets_per_entry, 2),
                   Table::fmt(c.avg_targets_per_entry, 2)});
  }
  table.print();
  return session.finish();
}
