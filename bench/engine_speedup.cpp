// Engine scaling: wall-clock speedup of the jobs-parallel workload suite
// over the serial suite (docs/PARALLELISM.md, EXPERIMENTS.md §engine).
// Runs the suite twice (serial then parallel) so it costs 2x one figure
// binary — keep MAC3D_SCALE small. Pass the worker count via MAC3D_JOBS
// (0 / unset = hardware concurrency).
#include <cstdio>
#include <thread>

#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace mac3d;
  bench::Session session(argc, argv, "engine_speedup");
  print_banner("Engine scaling: serial vs jobs-parallel suite wall clock");
  SuiteOptions options = default_suite_options();
  options.run_raw = false;  // scaling question only needs the MAC path

  // default_suite_options() already folded MAC3D_JOBS in; 1 (the env
  // default) would make the "parallel" leg serial too, so fall back to
  // hardware concurrency unless the env asked for a specific count.
  const std::uint32_t jobs = options.jobs > 1 ? options.jobs : 0;
  const bench::SuiteSpeedup result =
      bench::measure_suite_speedup(options, jobs);
  const std::uint32_t effective_jobs =
      result.jobs != 0 ? result.jobs
                       : std::max(1u, std::thread::hardware_concurrency());
  std::printf("  serial suite:   %7.3f s\n", result.serial_seconds);
  std::printf("  parallel suite: %7.3f s  (%u jobs)\n",
              result.parallel_seconds, effective_jobs);
  std::printf("  speedup:        %6.2fx\n", result.speedup);

  session.set_number("jobs", effective_jobs);
  session.set_number("serial_seconds", result.serial_seconds);
  session.set_number("parallel_seconds", result.parallel_seconds);
  session.set_number("speedup", result.speedup);
  return session.finish();
}
