// Multi-node NUMA system (paper Fig. 4): execution-driven simulation of
// several nodes — each with in-order cores, SPMs, a unified MAC and a
// directly-attached HMC — joined by the interconnect. Threads gather from
// both local and remote cubes; the request router classifies the traffic
// and remote responses travel back through the fabric.
//
// Usage: numa_multinode [nodes] [elements-per-thread]
//   nodes in [1, 16384] (default 2), elements-per-thread in [1, 1000000]
//   (default 2000); a malformed argument or MAC3D_CONFIG exits 2.
#include <cstdio>
#include <string>

#include "arch/system.hpp"
#include "common/rng.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

using namespace mac3d;

namespace {
constexpr std::uint32_t kCores = 4;
/// nodes x kCores thread streams must fit the 16-bit ThreadId.
constexpr NumberRange<std::uint32_t> kNodes{1, kIdCount.hi / kCores};
constexpr NumberRange<std::uint64_t> kElements{1, 1'000'000};
}  // namespace

int main(int argc, char** argv) try {
  SimConfig config;
  config.apply_env();
  config.nodes = argc > 1 ? parse_arg(argv[1], kNodes) : 2;
  config.cores = kCores;
  config.validate();
  const std::uint64_t per_thread =
      argc > 2 ? parse_arg(argv[2], kElements) : 2000;

  print_banner("NUMA system: " + std::to_string(config.nodes) +
               " nodes x " + std::to_string(config.cores) + " cores");

  // Each thread interleaves a local stream with gathers striped across
  // every node's cube (a distributed-array access pattern).
  const std::uint32_t threads = config.nodes * config.cores;
  MemoryTrace trace(threads);
  Xoshiro256 rng(1234);
  for (std::uint32_t t = 0; t < threads; ++t) {
    const auto tid = static_cast<ThreadId>(t);
    const NodeId home = static_cast<NodeId>(t % config.nodes);
    const Address local_base =
        static_cast<Address>(home) * config.hmc_capacity + 0x100000;
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      trace.instr(tid, 3);
      trace.load(tid, local_base + i * 8);  // local stream
      if (i % 4 == 0) {
        const NodeId victim = static_cast<NodeId>(rng.below(config.nodes));
        trace.load(tid, static_cast<Address>(victim) * config.hmc_capacity +
                            0x4000000 + rng.below(1 << 20) * 16);
      }
      if (i % 8 == 0) {
        trace.store(tid, local_base + (per_thread + i) * 8);
      }
    }
    trace.fence(tid);
  }

  System system(config);
  system.attach_trace(trace);
  const SystemRunSummary summary = system.run();

  std::printf("completed: %s in %s cycles (%.2f us simulated)\n",
              summary.completed ? "yes" : "NO",
              Table::count(summary.cycles).c_str(),
              config.cycles_to_ns(summary.cycles) / 1000.0);
  std::printf("requests %s, completions %s, avg latency %.0f cycles\n\n",
              Table::count(summary.requests).c_str(),
              Table::count(summary.completions).c_str(),
              summary.avg_latency_cycles);

  Table table({"node", "HMC packets", "coalescing eff", "bw eff",
               "bank conflicts", "remote msgs in"});
  for (std::size_t n = 0; n < system.node_count(); ++n) {
    Node& node = system.node(n);
    // Every policy's path reports node<n>.<path>.{raw_in,packets_out}.
    const std::string path =
        "node" + std::to_string(n) + "." + node.memory_path().name();
    const double raw_in = summary.stats.get(path + ".raw_in");
    const double packets_out = summary.stats.get(path + ".packets_out");
    table.add_row({std::to_string(n),
                   Table::count(node.device().stats().requests),
                   Table::pct(raw_in == 0.0 ? 0.0
                                            : 1.0 - packets_out / raw_in),
                   Table::pct(
                       node.device().stats().measured_bandwidth_efficiency()),
                   Table::count(node.device().stats().bank_conflicts),
                   Table::count(node.router().remote_in())});
  }
  table.print();
  std::printf("interconnect messages: %s\n",
              Table::count(system.fabric().messages()).c_str());
  return summary.completed ? 0 : 1;
} catch (const ConfigError& error) {
  std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
  return 2;
}
