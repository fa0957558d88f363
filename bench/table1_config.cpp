// Table 1: simulation environment configuration.
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "table1_config");
  print_banner("Table 1: Simulation Environment Configurations");
  SimConfig config;
  config.apply_env();
  config.validate();
  std::printf("%s", config.to_table().c_str());
  std::printf(
      "\nDerived: %u FLITs/row, %u builder groups, max %u targets/entry,\n"
      "ARQ storage %u B, total banks %llu\n",
      config.flits_per_row(), config.builder_groups(),
      config.max_targets_per_entry(),
      config.arq_entries * config.arq_entry_bytes,
      static_cast<unsigned long long>(config.total_banks()));
  print_reference("avg HMC access latency", "93 ns", "see tests (calibrated)");
  return session.finish();
}
