// The benchmark's five workloads (perf/README.md, "Workloads"): what each
// one replays, how its inputs are generated from the seed, and how one
// timed operation runs through the simulator's public entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/system.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "sim/driver.hpp"
#include "trace/trace.hpp"

namespace perf {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class Kind : std::uint8_t {
  kStream,  ///< run_policy over one trace per kernel (src/sim drivers)
  kSystem,  ///< one System run per kernel (src/arch)
};

struct KernelSpec {
  const char* name;  ///< workload registry name (src/workloads)
  double scale;
};

struct WorkloadSpec {
  const char* name;
  Kind kind;
  mac3d::CoalescerPolicy policy;
  mac3d::FeedMode feed;   ///< stream workloads
  bool event_engine;      ///< System::run_event (true) or System::run
  std::uint32_t nodes;    ///< system workloads
  std::uint32_t threads;  ///< trace thread streams
  bool observed;          ///< attach the `mac3d system --profile` telemetry
  std::vector<KernelSpec> kernels;
  /// Timed reps of an untraced run: about 11 s of reps on the reference
  /// host, so that two revisions take their fastest runs over the same n.
  std::uint32_t timed_reps = 1;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();
[[nodiscard]] const WorkloadSpec* find_spec(std::string_view name);

/// Simulated outcome of one kernel run. Engine- and telemetry-invariant,
/// so it identifies the simulated result independent of host speed.
struct Fingerprint {
  std::uint64_t cycles = 0;  ///< makespan (stream) or System cycles
  std::uint64_t packets = 0;  ///< HMC transactions across all devices
  std::uint64_t completions = 0;
  std::uint64_t stats_fnv = 0;  ///< FNV-1a of the simulated StatSet CSV

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

[[nodiscard]] std::uint64_t fnv1a(std::string_view text);
[[nodiscard]] std::string to_string(const Fingerprint& fp);

struct Kernel {
  std::string name;
  mac3d::MemoryTrace trace;
  std::uint64_t records = 0;  ///< main-memory records across all threads
};

/// Generated inputs of one workload: the model config plus one trace per
/// kernel, all derived from the seed.
struct Inputs {
  const WorkloadSpec* spec = nullptr;
  mac3d::SimConfig config;
  std::vector<Kernel> kernels;
};

/// Set-up: generate every kernel's trace with WorkloadParams.seed = seed.
/// `scale_factor` multiplies each kernel's scale (1.0 for the benchmark;
/// the smoke test shrinks it).
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                                 double scale_factor);

/// A System built and loaded for one kernel — the model-construction half
/// of set-up, kept out of the timed region.
[[nodiscard]] std::unique_ptr<mac3d::System> make_system(
    const Inputs& inputs, const Kernel& kernel);

/// Fingerprint of a finished System run, rebuilt from the system's public
/// state the way System::summarize builds SystemRunSummary::stats, so the
/// benchmark's own copies of the run loop are fingerprinted identically.
[[nodiscard]] Fingerprint system_fingerprint(mac3d::System& system,
                                             mac3d::Cycle cycles,
                                             bool completed);

/// Result of one timed operation (one run_policy call or one System run).
struct OpResult {
  Fingerprint fp;
  std::uint64_t visited = 0;  ///< engine-visited cycles (0 = not measured)
  double seconds = 0.0;       ///< host time of the simulator call
  std::string error;          ///< non-empty: the op failed
};

/// Telemetry to attach to a System run (system4-observed and the
/// obs.*.attached_s layer costs).
struct Telemetry {
  bool census = false;
  bool lifecycle = false;  ///< LatencyDecomposer sink
  bool sampler = false;    ///< CycleSampler(64)
  bool snapshot = false;   ///< SnapshotStreamer(1024)
  bool profiler = false;   ///< HostProfiler
};

/// The workload's default telemetry: everything for system4-observed,
/// nothing otherwise.
[[nodiscard]] Telemetry default_telemetry(const WorkloadSpec& spec);

/// Run one kernel of a stream workload through run_policy on the event
/// engine, or on the event-parallel engine with `parallel_threads` > 0
/// workers. With `count_visited`, a census carrying a visit counter is
/// attached (slower; used only for untimed reference runs).
[[nodiscard]] OpResult run_stream_op(const Inputs& inputs, const Kernel& kernel,
                                     bool count_visited = false,
                                     std::uint32_t parallel_threads = 0);

/// Run one kernel of a system workload: the System is constructed and
/// loaded untimed, then `engine` (kSerial, kEvent, or kEventParallel with
/// `parallel_threads` workers) runs it under the timer. A nonzero
/// `max_cycles` stops the run there, and the op is then not required to
/// complete.
[[nodiscard]] OpResult run_system_op(const Inputs& inputs, const Kernel& kernel,
                                     mac3d::Engine engine,
                                     const Telemetry& telemetry,
                                     std::uint32_t parallel_threads = 0,
                                     mac3d::Cycle max_cycles = 0);

/// The engine a system workload's timed ops run on.
[[nodiscard]] mac3d::Engine system_engine(const WorkloadSpec& spec);

}  // namespace perf
