// Quickstart: the 60-second tour of the library.
//
// 1. Reproduce the paper's Fig. 2 example by hand: sixteen threads each
//    load one FLIT of the same 256 B DRAM row; with MAC they leave as ONE
//    256 B transaction, without it as sixteen 16 B transactions.
// 2. Run a real workload (Scatter/Gather) through both memory paths and
//    print the headline metrics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "mac/coalescer.hpp"
#include "mem/hmc_device.hpp"
#include "sim/driver.hpp"
#include "sim/metrics.hpp"
#include "workloads/all.hpp"

using namespace mac3d;

namespace {

void figure2_example() {
  std::printf("--- Fig. 2: sixteen 16B loads of one 256B HMC row ---\n");
  SimConfig config;  // Table 1 defaults
  // Disable the fill-fast boot transient so this 16-request demo shows
  // steady-state aggregation (a real run amortizes the transient away).
  config.fill_fast_enabled = false;
  HmcDevice device(config);
  MacCoalescer mac(config, device);

  // Sixteen threads simultaneously load FLITs 0..15 of row 0xA.
  Cycle now = 0;
  for (std::uint32_t t = 0; t < 16; ++t) {
    RawRequest request;
    request.addr = 0xA00 + static_cast<Address>(t) * kFlitBytes;
    request.op = MemOp::kLoad;
    request.tid = static_cast<ThreadId>(t);
    request.tag = 1;
    mac.accept(request, now);
    mac.tick(now);
    ++now;
  }
  // Drain the MAC.
  std::uint64_t completions = 0;
  while (!mac.idle()) {
    mac.tick(now);
    completions += mac.drain(now).size();
    const Cycle next = mac.next_event(now);
    now = next <= now ? now + 1 : next;
  }
  std::printf("raw requests in : %llu\n",
              static_cast<unsigned long long>(mac.stats().raw_in));
  std::printf("HMC packets out : %llu",
              static_cast<unsigned long long>(mac.stats().packets_out));
  for (const auto& [size, count] : mac.stats().packets_by_size) {
    std::printf("  (%llux %uB)", static_cast<unsigned long long>(count),
                size);
  }
  std::printf("\ncompletions     : %llu (every thread answered)\n",
              static_cast<unsigned long long>(completions));
  std::printf("bank conflicts  : %llu with MAC vs 15 without\n\n",
              static_cast<unsigned long long>(
                  device.stats().bank_conflicts));
}

void scatter_gather_demo() {
  std::printf("--- Scatter/Gather through both memory paths ---\n");
  SimConfig config;
  WorkloadParams params;
  params.threads = config.cores;
  params.scale = 0.25;  // quick demo
  params.config = config;
  const MemoryTrace trace = sg_workload()->trace(params);

  const DriverResult raw = run_policy(CoalescerPolicy::kRaw, trace, config,
                                      params.threads);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config,
                                      params.threads);

  std::printf("raw requests        : %llu\n",
              static_cast<unsigned long long>(mac.raw_requests));
  std::printf("packets   raw path  : %llu\n",
              static_cast<unsigned long long>(raw.packets));
  std::printf("packets   MAC path  : %llu\n",
              static_cast<unsigned long long>(mac.packets));
  std::printf("coalescing efficiency      : %.2f%%\n",
              mac.coalescing_efficiency() * 100.0);
  std::printf("bandwidth efficiency (raw) : %.2f%%\n",
              raw.bandwidth_efficiency() * 100.0);
  std::printf("bandwidth efficiency (MAC) : %.2f%%\n",
              mac.bandwidth_efficiency() * 100.0);
  std::printf("bank conflicts removed     : %llu\n",
              static_cast<unsigned long long>(
                  bank_conflict_reduction(raw, mac)));
  std::printf("memory-system speedup      : %.2f%%\n",
              memory_speedup(raw, mac) * 100.0);
}

}  // namespace

int main() {
  std::printf("MAC: Memory Access Coalescer for 3D-Stacked Memory\n");
  std::printf("==================================================\n\n");
  figure2_example();
  scatter_gather_demo();
  return 0;
}
