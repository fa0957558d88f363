// Trace workflow: generate a workload trace, save it to disk, reload it,
// and replay the identical stream through all three memory paths (raw,
// MSHR-64B, MAC) — the way the paper replays its Spike traces through
// HMCSim with and without the coalescer.
//
// Usage: trace_replay [workload] [path]
#include <cstdio>
#include <cstdlib>

#include "sim/driver.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workload.hpp"

using namespace mac3d;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "sg";
  const std::string path =
      argc > 2 ? argv[2] : "/tmp/mac3d_" + name + ".trace";

  const Workload* workload = find_workload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; available:", name.c_str());
    for (const std::string& known : workload_names()) {
      std::fprintf(stderr, " %s", known.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  SimConfig config;
  config.apply_env();
  config.validate();
  WorkloadParams params;
  params.threads = config.cores;
  params.config = config;

  print_banner("Trace replay: " + workload->description());
  const MemoryTrace trace = workload->trace(params);
  save_trace(trace, path);
  std::printf("traced %s memory records -> %s\n",
              Table::count(trace.size()).c_str(), path.c_str());

  const MemoryTrace replay = load_trace(path);
  check_trace_addresses(replay, config);
  std::printf("reloaded %s records, %u threads\n\n",
              Table::count(replay.size()).c_str(), replay.threads());

  const DriverResult raw = run_policy(CoalescerPolicy::kRaw, replay, config,
                                      config.cores);
  const DriverResult mshr = run_policy(CoalescerPolicy::kMshr, replay, config,
                                       config.cores);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, replay, config,
                                      config.cores);

  Table table({"path", "packets", "avg packet", "bw eff", "bank conflicts",
               "speedup vs raw"});
  for (const DriverResult* result : {&raw, &mshr, &mac}) {
    table.add_row({result->path, Table::count(result->packets),
                   Table::bytes(static_cast<std::uint64_t>(
                       result->avg_packet_bytes)),
                   Table::pct(result->bandwidth_efficiency()),
                   Table::count(result->bank_conflicts),
                   result == &raw ? std::string("-")
                                  : Table::pct(memory_speedup(raw, *result))});
  }
  table.print();
  return 0;
}
