#include "workloads.hpp"

#include <exception>
#include <stdexcept>

#include "obs/latency.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/snapshot.hpp"
#include "workloads/workload.hpp"

namespace perf {

using mac3d::CoalescerPolicy;
using mac3d::FeedMode;

const std::vector<WorkloadSpec>& workload_specs() {
  // The paper replays all twelve kernels (Figs. 10-17), in figure order.
  static const std::vector<KernelSpec> all12 = {
      {"mg", 1.0},   {"grappolo", 1.0}, {"sg", 1.0},      {"sp", 1.0},
      {"sparselu", 1.0}, {"hpcg", 1.0}, {"ssca2", 1.0},   {"bfs", 1.0},
      {"pr", 1.0},   {"cc", 1.0},       {"nqueens", 1.0}, {"sort", 1.0}};
  static const std::vector<WorkloadSpec> specs = {
      {"stream-mac", Kind::kStream, CoalescerPolicy::kMac,
       FeedMode::kStreaming, true, 1, 8, false, all12, 5},
      {"stream-raw", Kind::kStream, CoalescerPolicy::kRaw,
       FeedMode::kStreaming, true, 1, 8, false, all12, 4},
      {"lane-warp", Kind::kStream, CoalescerPolicy::kWarp,
       FeedMode::kLaneGroup, true, 1, 8, false, all12, 7},
      {"system16", Kind::kSystem, CoalescerPolicy::kMac,
       FeedMode::kStreaming, true, 16, 128, false,
       {{"sg", 0.05}, {"bfs", 0.5}}, 4},
      {"system4-observed", Kind::kSystem, CoalescerPolicy::kMac,
       FeedMode::kStreaming, false, 4, 8, true, {{"sg", 0.02}}, 4},
  };
  return specs;
}

const WorkloadSpec* find_spec(std::string_view name) {
  for (const WorkloadSpec& spec : workload_specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string to_string(const Fingerprint& fp) {
  return "cycles=" + std::to_string(fp.cycles) +
         " packets=" + std::to_string(fp.packets) +
         " completions=" + std::to_string(fp.completions) +
         " stats_fnv=" + std::to_string(fp.stats_fnv);
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double scale_factor) {
  Inputs inputs;
  inputs.spec = &spec;
  inputs.config.nodes = spec.kind == Kind::kSystem ? spec.nodes : 1;
  inputs.config.policy = spec.policy;
  inputs.config.validate();
  for (const KernelSpec& kernel_spec : spec.kernels) {
    const mac3d::Workload* workload = mac3d::find_workload(kernel_spec.name);
    if (workload == nullptr) {
      throw std::invalid_argument(std::string("unknown kernel ") +
                                  kernel_spec.name);
    }
    mac3d::WorkloadParams params;
    params.threads = spec.threads;
    params.scale = kernel_spec.scale * scale_factor;
    params.seed = seed;
    params.config = inputs.config;
    Kernel kernel{kernel_spec.name, workload->trace(params)};
    kernel.records = kernel.trace.size();
    inputs.kernels.push_back(std::move(kernel));
  }
  return inputs;
}

std::unique_ptr<mac3d::System> make_system(const Inputs& inputs,
                                           const Kernel& kernel) {
  auto system = std::make_unique<mac3d::System>(inputs.config);
  system->attach_trace(kernel.trace);
  return system;
}

Fingerprint system_fingerprint(mac3d::System& system, mac3d::Cycle cycles,
                               bool completed) {
  mac3d::StatSet stats;
  Fingerprint fp;
  fp.cycles = cycles;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    mac3d::Node& node = system.node(i);
    node.collect(stats, "node" + std::to_string(i));
    fp.completions += node.completions_delivered();
    fp.packets += node.device().stats().requests;
  }
  stats.set("system.cycles", static_cast<double>(cycles));
  stats.set("system.completed", completed ? 1.0 : 0.0);
  fp.stats_fnv = fnv1a(stats.to_csv());
  return fp;
}

Telemetry default_telemetry(const WorkloadSpec& spec) {
  if (!spec.observed) return {};
  return {true, true, true, true, true};
}

mac3d::Engine system_engine(const WorkloadSpec& spec) {
  return spec.event_engine ? mac3d::Engine::kEvent : mac3d::Engine::kSerial;
}

OpResult run_stream_op(const Inputs& inputs, const Kernel& kernel,
                       bool count_visited, std::uint32_t parallel_threads) {
  const WorkloadSpec& spec = *inputs.spec;
  OpResult out;
  mac3d::DriveOptions options;
  options.mode = spec.feed;
  options.engine = parallel_threads == 0 ? mac3d::Engine::kEvent
                                         : mac3d::Engine::kEventParallel;
  options.engine_threads = parallel_threads;
  // The census evaluates every probe once per visited cycle, so a probe
  // that only counts its calls measures the engine's visited cycles.
  mac3d::ActivityCensus census;
  std::uint64_t visits = 0;
  if (count_visited) {
    census.add_component("perf.visits", [&visits](mac3d::Cycle) {
      ++visits;
      return false;
    });
    options.census = &census;
  }
  try {
    const Clock::time_point start = Clock::now();
    const mac3d::DriverResult result = mac3d::run_policy(
        spec.policy, kernel.trace, inputs.config, spec.threads, options);
    out.seconds = seconds_since(start);
    mac3d::StatSet stats;
    result.collect(stats, "run");
    out.fp = {result.makespan, result.packets, result.completions,
              fnv1a(stats.to_csv())};
    out.visited = visits;
    if (result.completions != kernel.records) {
      out.error = "completed " + std::to_string(result.completions) + " of " +
                  std::to_string(kernel.records) + " records";
    }
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  return out;
}

OpResult run_system_op(const Inputs& inputs, const Kernel& kernel,
                       mac3d::Engine engine, const Telemetry& telemetry,
                       std::uint32_t parallel_threads,
                       mac3d::Cycle max_cycles) {
  const mac3d::Cycle cap = max_cycles == 0 ? 2'000'000'000ULL : max_cycles;
  OpResult out;
  try {
    const std::unique_ptr<mac3d::System> system = make_system(inputs, kernel);
    // What `mac3d system --profile --sample-every 64 --snapshot-every 1024`
    // attaches; nothing is written to disk.
    mac3d::ActivityCensus census;
    mac3d::LatencyDecomposer decomposer;
    mac3d::CycleSampler sampler(64);
    mac3d::SnapshotStreamer snapshot(1024);
    mac3d::HostProfiler profiler;
    if (telemetry.lifecycle) system->attach_sink(&decomposer);
    if (telemetry.census) system->attach_census(&census);
    if (telemetry.profiler) system->attach_profiler(&profiler);
    if (telemetry.sampler) system->attach_sampler(&sampler);
    if (telemetry.snapshot) system->attach_snapshot(&snapshot);

    const Clock::time_point start = Clock::now();
    const mac3d::SystemRunSummary summary =
        engine == mac3d::Engine::kEvent ? system->run_event(cap)
        : engine == mac3d::Engine::kEventParallel
            ? system->run_event_parallel(parallel_threads, cap)
            : system->run(cap);
    out.seconds = seconds_since(start);
    census.seal();  // probes reference the nodes owned by `system`

    out.fp = system_fingerprint(*system, summary.cycles, summary.completed);
    out.visited = summary.visited_cycles;
    if (out.fp.stats_fnv != fnv1a(summary.stats.to_csv())) {
      out.error = "rebuilt system stats differ from SystemRunSummary::stats";
    } else if (max_cycles != 0) {
      // A capped run is compared with another capped run, not checked.
    } else if (!summary.completed) {
      out.error = "run did not complete";
    } else if (summary.completions != summary.requests ||
               summary.requests != kernel.records) {
      out.error = "completed " + std::to_string(summary.completions) +
                  " of " + std::to_string(summary.requests) +
                  " requests (" + std::to_string(kernel.records) +
                  " records)";
    }
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  return out;
}

}  // namespace perf
