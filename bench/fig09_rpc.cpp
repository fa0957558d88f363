// Figure 9: raw requests per cycle (Eq. 2) —
//   RPC = IPC x RPI x #cores x mem_access_rate
// measured from each workload's traced instruction mix (8 cores, IPC 1 for
// the in-order cores). The paper reports every benchmark above 2 RPC and
// an average of up to 9.32 requests ready to enter the ARQ per cycle.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "fig09_rpc");
  print_banner("Figure 9: raw requests per cycle (Eq. 2)");
  SuiteOptions options = default_suite_options();
  const double ipc = 1.0;  // simple in-order cores

  Table table({"workload", "instructions", "RPI", "mem access rate", "RPC"});
  double sum = 0.0;
  int count = 0;
  for (const Workload* workload : workload_registry()) {
    WorkloadParams params;
    params.threads = options.threads;
    params.scale = options.scale;
    params.config = options.config;
    const MemoryTrace trace = workload->trace(params);
    const double rpi = trace.requests_per_instruction();
    const double rate = trace.mem_access_rate();
    const double rpc = ipc * rpi * options.config.cores * rate;
    sum += rpc;
    ++count;
    table.add_row({bench::label(workload->name()),
                   Table::count(trace.instructions()), Table::fmt(rpi, 3),
                   Table::fmt(rate, 3), Table::fmt(rpc, 2)});
  }
  table.print();
  print_reference("every benchmark", "> 2 RPC", "see table");
  print_reference("average RPC", "up to 9.32", Table::fmt(sum / count, 2));
  return session.finish();
}
