#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

namespace mac3d {
namespace {

/// `name`'s value inside `range`; nullopt when unset or empty.
template <typename T>
std::optional<T> env_number(const char* name, const NumberRange<T>& range) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  const std::optional<T> value = parse_number<T>(raw, range);
  if (!value) {
    throw ConfigError(std::string(name) + "=" + raw + ": want " +
                      range.describe());
  }
  return value;
}

}  // namespace

std::vector<WorkloadRun> run_suite(const SuiteOptions& options) {
  std::vector<const Workload*> selected;
  for (const Workload* workload : workload_registry()) {
    if (!options.only.empty() &&
        std::find(options.only.begin(), options.only.end(),
                  workload->name()) == options.only.end()) {
      continue;
    }
    selected.push_back(workload);
  }

  // Workloads are independent runs: each task builds its own trace,
  // device and path, and commits into its registry-order slot — so the
  // result vector is identical for any jobs value (docs/PARALLELISM.md).
  std::vector<WorkloadRun> runs(selected.size());
  const auto run_one = [&options, &selected, &runs](std::size_t index) {
    const Workload* workload = selected[index];
    WorkloadParams params;
    params.threads = options.threads;
    params.scale = options.scale;
    params.seed = options.seed;
    params.config = options.config;
    const MemoryTrace trace = workload->trace(params);

    WorkloadRun& run = runs[index];
    run.name = workload->name();
    run.trace.records = trace.size();
    run.trace.instructions = trace.instructions();
    run.trace.memory_refs = trace.memory_refs();
    run.trace.main_memory_refs = trace.main_memory_refs();
    run.trace.spm_refs = trace.spm_refs();
    run.trace.requests_per_instruction = trace.requests_per_instruction();
    run.trace.mem_access_rate = trace.mem_access_rate();

    const auto drive = [&](CoalescerPolicy policy) {
      return run_policy(policy, trace, options.config, options.threads,
                        options.drive);
    };
    if (options.run_raw) run.raw = drive(CoalescerPolicy::kRaw);
    if (options.run_mac) run.mac = drive(CoalescerPolicy::kMac);
    if (options.run_mshr) run.mshr = drive(CoalescerPolicy::kMshr);
    if (options.run_warp) run.warp = drive(CoalescerPolicy::kWarp);
  };

  // Shared check and telemetry hooks capture per-run state (probe rows,
  // windows, stamp streams), so they force one run at a time.
  run_jobs(selected.size(), options.drive.hooks_attached() ? 1 : options.jobs,
           run_one);
  return runs;
}

void run_jobs(std::size_t count, std::uint32_t jobs,
              const std::function<void(std::size_t)>& task) {
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::exception_ptr error;  // guarded by mutex
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        task(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (error == nullptr) error = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < std::min<std::size_t>(jobs, count); ++t) {
      helpers.emplace_back(work);
    }
    work();
  }  // the helpers join here
  if (error != nullptr) std::rethrow_exception(error);
}

double env_scale() { return env_number("MAC3D_SCALE", kScale).value_or(1.0); }

std::uint32_t env_threads(std::uint32_t fallback) {
  return env_number("MAC3D_THREADS", kIdCount).value_or(fallback);
}

std::uint32_t env_jobs(std::uint32_t fallback) {
  const std::uint32_t jobs = env_number("MAC3D_JOBS", kWorkers).value_or(0);
  return jobs == 0 ? fallback : jobs;
}

SuiteOptions default_suite_options() {
  SuiteOptions options;
  options.config.apply_env();
  options.config.validate();
  options.scale = env_scale();
  options.threads = env_threads(options.config.cores);
  options.jobs = env_jobs(1);
  return options;
}

}  // namespace mac3d
