// Sparse solver study: how the MAC treats HPCG's three phases (SpMV
// gather, dot products, AXPY streams) and how the builder's packet-size
// mix reacts. Also demonstrates per-component statistics collection into
// a StatSet for external tooling (CSV on stdout with --csv).
//
// Usage: spmv_hpcg [--csv] [scale]
//   scale in (0, 1e6] (default 1.0); a malformed argument or MAC3D_CONFIG
//   exits 2.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "workloads/all.hpp"

using namespace mac3d;

int main(int argc, char** argv) try {
  bool csv = false;
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else {
      scale = parse_arg(argv[i], kScale);
    }
  }

  SimConfig config;
  config.apply_env();
  WorkloadParams params;
  params.scale = scale;
  params.threads = config.cores;
  params.config = config;

  const MemoryTrace trace = hpcg_workload()->trace(params);
  const DriverResult raw = run_policy(CoalescerPolicy::kRaw, trace, config,
                                      params.threads);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config,
                                      params.threads);

  if (csv) {
    StatSet stats;
    raw.collect(stats, "raw");
    mac.collect(stats, "mac");
    stats.set("speedup", memory_speedup(raw, mac));
    std::cout << stats.to_csv();
    return 0;
  }

  print_banner("HPCG (27-point CG) through the MAC");
  std::printf("%-28s %12s %12s\n", "", "raw", "MAC");
  std::printf("%-28s %12s %12s\n", "packets",
              Table::count(raw.packets).c_str(),
              Table::count(mac.packets).c_str());
  std::printf("%-28s %12s %12s\n", "bank conflicts",
              Table::count(raw.bank_conflicts).c_str(),
              Table::count(mac.bank_conflicts).c_str());
  std::printf("%-28s %12s %12s\n", "link traffic",
              Table::bytes(raw.link_bytes).c_str(),
              Table::bytes(mac.link_bytes).c_str());
  std::printf("%-28s %12s %12s\n", "bandwidth efficiency",
              Table::pct(raw.bandwidth_efficiency()).c_str(),
              Table::pct(mac.bandwidth_efficiency()).c_str());
  std::printf("%-28s %12s %12s\n", "avg request latency (cy)",
              Table::fmt(raw.avg_latency_cycles, 0).c_str(),
              Table::fmt(mac.avg_latency_cycles, 0).c_str());

  std::printf("\nMAC packet-size mix (the Request Builder's choices):\n");
  for (const auto& [size, count] : mac.packets_by_size) {
    std::printf("  %4uB x %-10s %s\n", size, Table::count(count).c_str(),
                std::string(
                    static_cast<std::size_t>(
                        60.0 * static_cast<double>(count) /
                        static_cast<double>(mac.packets)),
                    '#')
                    .c_str());
  }
  std::printf("\nmemory-system speedup: %s\n",
              Table::pct(memory_speedup(raw, mac)).c_str());
  return 0;
} catch (const ConfigError& error) {
  std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
  return 2;
}
