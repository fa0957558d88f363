// mac3d_perf: the repo benchmark (perf/README.md).
//
//   mac3d_perf --workload NAME [--seed N] [--seconds S] [--trace] [--json F]
//   mac3d_perf --write-expected      regenerate perf/expected/seed42.json
//   mac3d_perf --smoke               tiny-scale self-check (ctest perf_smoke)
//
// An untraced run sets up the workload's inputs (trace generation + model
// construction), runs one untimed warm-up rep whose simulated fingerprints
// become the reference, then runs the workload's fixed number of timed
// reps (ending early after --seconds of reps), each after another set-up,
// and reports the end-to-end metrics. A --trace run reports the
// per-layer metrics instead, from the bench-side loop copies in
// traced_loops.cpp and from timed calls into the public run entry points.
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics. The exit code is 1 when any simulated output was wrong.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "lint/json_doc.hpp"
#include "mem/hmc_device.hpp"
#include "sim/memory_path.hpp"
#include "traced_loops.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

// Untraced runs set up in phases (see run_untraced): the small system
// workloads set up in well under a millisecond, so a phase repeats them.
constexpr std::size_t kMaxSetupsPerPhase = 200;
constexpr double kSetupPhaseS = 0.1;
constexpr std::size_t kMinTimedReps = 3;
// Traced runs repeat their timed comparisons (see run_traced), must end
// within kTracedCapS, and start no round that would end past
// kRoundsDeadlineS.
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 20;
constexpr double kRoundsBudgetS = 3.0;
constexpr double kRoundsDeadlineS = 22.0;
constexpr double kTracedCapS = 30.0;
constexpr std::uint64_t kExpectedSeed = 42;
constexpr std::uint64_t kSmokeOtherSeed = 7;
constexpr double kSmokeScale = 0.005;
const std::string kExpectedPath =
    std::string(MAC3D_PERF_DIR) + "/expected/seed42.json";

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Third minus first quartile, by the exclusive method of Python's
/// statistics.quantiles(values, n=4).
double iqr(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 2) return 0.0;
  std::sort(values.begin(), values.end());
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  return quartile(3) - quartile(1);
}

// ---- Expected fingerprints (perf/expected/seed42.json) ------------------

using FingerprintMap =
    std::map<std::string, std::map<std::string, Fingerprint>>;

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

bool load_expected(FingerprintMap& out, std::string& error) {
  std::ifstream in(kExpectedPath);
  if (!in) {
    error = "cannot read " + kExpectedPath;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  mac3d::lint::JsonValue doc;
  if (!mac3d::lint::parse_json(text.str(), doc, error)) return false;
  const mac3d::lint::JsonValue* workloads = doc.find("workloads");
  if (workloads == nullptr) {
    error = kExpectedPath + ": no \"workloads\" object";
    return false;
  }
  for (const auto& [workload, kernels] : workloads->members) {
    for (const auto& [kernel, entry] : kernels.members) {
      Fingerprint fp;
      fp.cycles = static_cast<std::uint64_t>(entry.number_or("cycles"));
      fp.packets = static_cast<std::uint64_t>(entry.number_or("packets"));
      fp.completions =
          static_cast<std::uint64_t>(entry.number_or("completions"));
      fp.stats_fnv =
          std::strtoull(entry.string_or("stats_fnv").c_str(), nullptr, 16);
      out[workload][kernel] = fp;
    }
  }
  return true;
}

bool write_expected(const FingerprintMap& map) {
  std::string out = "{\n  \"seed\": " + std::to_string(kExpectedSeed) +
                    ",\n  \"workloads\": {";
  bool first_workload = true;
  for (const auto& [workload, kernels] : map) {
    out += first_workload ? "\n" : ",\n";
    first_workload = false;
    out += "    " + mac3d::json_quote(workload) + ": {";
    bool first_kernel = true;
    for (const auto& [kernel, fp] : kernels) {
      out += first_kernel ? "\n" : ",\n";
      first_kernel = false;
      out += "      " + mac3d::json_quote(kernel) +
             ": {\"cycles\": " + mac3d::json_number(fp.cycles) +
             ", \"packets\": " + mac3d::json_number(fp.packets) +
             ", \"completions\": " + mac3d::json_number(fp.completions) +
             ", \"stats_fnv\": \"" + hex64(fp.stats_fnv) + "\"}";
    }
    out += "\n    }";
  }
  out += "\n  }\n}\n";
  std::ofstream file(kExpectedPath);
  file << out;
  return static_cast<bool>(file);
}

// ---- Result bookkeeping -------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  ///< empty for single measurements
};

class Report {
 public:
  /// One simulated operation: fails on `error` (non-empty).
  void op(const std::string& what, const std::string& error) {
    ++attempted_;
    if (!error.empty()) {
      ++failed_;
      errors_.push_back(what + ": " + error);
    }
  }
  /// A correctness failure outside any op (e.g. nondeterministic inputs).
  void fail(const std::string& message) { errors_.push_back(message); }

  void add(std::string name, std::string unit, std::vector<double> samples) {
    const double value = median(samples);
    add(std::move(name), std::move(unit), value, std::move(samples));
  }
  void add(std::string name, std::string unit, double value,
           std::vector<double> samples) {
    metrics_.push_back(
        {std::move(name), std::move(unit), value, std::move(samples)});
  }
  void add(std::string name, std::string unit, double value) {
    metrics_.push_back({std::move(name), std::move(unit), value, {}});
  }
  /// Per-kernel host seconds of every timed run (--json only).
  void add_kernel_seconds(const std::string& kernel, double seconds) {
    kernel_seconds_[kernel].push_back(seconds);
  }

  [[nodiscard]] bool correct() const { return errors_.empty(); }

  void print() const {
    for (const Metric& metric : metrics_) {
      std::printf("  %-36s %16.6g %-6s", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
      if (!metric.samples.empty()) {
        const double spread = iqr(metric.samples);
        std::printf("  n=%zu, median %.6g, IQR %.4g (%.2f%%)",
                    metric.samples.size(), median(metric.samples), spread,
                    metric.value != 0.0 ? 100.0 * spread / metric.value
                                        : 0.0);
      }
      std::printf("\n");
    }
    std::printf("  ops %llu, ops_failed %llu\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (const std::string& error : errors_) {
      std::printf("  FAILED %s\n", error.c_str());
    }
  }

  /// The benchmark's result line.
  [[nodiscard]] std::string result_line() const {
    return "{" + outcome_json() + ", " + metrics_json(false) + "}";
  }

  /// Everything, per-rep samples and errors included (--json).
  [[nodiscard]] std::string detail_json(const std::string& workload,
                                        std::uint64_t seed,
                                        bool traced) const {
    std::string out = "{\"workload\": " + mac3d::json_quote(workload) +
                      ", \"seed\": " + mac3d::json_number(seed) +
                      ", \"trace\": " + (traced ? "true" : "false") + ", " +
                      outcome_json() + ", " + metrics_json(true) +
                      ", \"kernel_seconds\": {";
    bool first = true;
    for (const auto& [kernel, samples] : kernel_seconds_) {
      out += (first ? "" : ", ") + mac3d::json_quote(kernel) + ": " +
             array(samples);
      first = false;
    }
    out += "}, \"errors\": [";
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      out += (i > 0 ? ", " : "") + mac3d::json_quote(errors_[i]);
    }
    return out + "]}\n";
  }

 private:
  static std::string number(double value) {
    return mac3d::json_number(std::isfinite(value) ? value : 0.0);
  }
  static std::string array(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i > 0 ? ", " : "") + number(values[i]);
    }
    return out + "]";
  }
  [[nodiscard]] std::string outcome_json() const {
    return "\"correct\": " + std::string(correct() ? "true" : "false") +
           ", \"attempted\": " + mac3d::json_number(attempted_) +
           ", \"failed\": " + mac3d::json_number(failed_);
  }
  /// `"metrics": {...}`; with `detail`, also each metric's n, IQR and
  /// samples.
  [[nodiscard]] std::string metrics_json(bool detail) const {
    std::string out = "\"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& metric = metrics_[i];
      out += (i > 0 ? ", " : "") + mac3d::json_quote(metric.name) +
             ": {\"value\": " + number(metric.value) +
             ", \"unit\": " + mac3d::json_quote(metric.unit);
      if (detail && !metric.samples.empty()) {
        out += ", \"n\": " +
               mac3d::json_number(
                   static_cast<std::uint64_t>(metric.samples.size())) +
               ", \"iqr\": " + number(iqr(metric.samples)) +
               ", \"samples\": " + array(metric.samples);
      }
      out += "}";
    }
    return out + "}";
  }

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<Metric> metrics_;
  std::map<std::string, std::vector<double>> kernel_seconds_;
};

/// Holds each kernel's reference fingerprint: the committed one for seed
/// 42, otherwise the first run's (rep 0).
class Reference {
 public:
  Reference(std::string workload, const FingerprintMap* expected)
      : workload_(std::move(workload)), expected_(expected) {}

  /// Compare `fp` (and, when known, visited cycles) with the reference,
  /// adopting it as the reference on a kernel's first run. Stream copies
  /// carry no StatSet, so `with_stats` = false skips the hash.
  [[nodiscard]] std::string check(const std::string& kernel,
                                  const Fingerprint& fp,
                                  std::uint64_t visited = 0,
                                  bool with_stats = true) {
    auto found = first_.find(kernel);
    if (found == first_.end()) {
      if (expected_ != nullptr) {
        const auto workload = expected_->find(workload_);
        if (workload == expected_->end() ||
            workload->second.find(kernel) == workload->second.end()) {
          return "no committed seed-42 fingerprint";
        }
        const Fingerprint& want = workload->second.at(kernel);
        if (!(want == fp)) {
          return "fingerprint " + to_string(fp) + " != committed " +
                 to_string(want);
        }
      }
      first_.emplace(kernel, Entry{fp, visited});
      return "";
    }
    const Entry& want = found->second;
    Fingerprint compare = fp;
    if (!with_stats) compare.stats_fnv = want.fp.stats_fnv;
    if (!(compare == want.fp)) {
      return "fingerprint " + to_string(fp) + " != reference " +
             to_string(want.fp);
    }
    if (visited != 0 && want.visited != 0 && visited != want.visited) {
      return "visited " + std::to_string(visited) + " != reference " +
             std::to_string(want.visited);
    }
    if (want.visited == 0) found->second.visited = visited;
    return "";
  }

 private:
  struct Entry {
    Fingerprint fp;
    std::uint64_t visited = 0;
  };
  std::string workload_;
  const FingerprintMap* expected_;
  std::map<std::string, Entry> first_;
};

// ---- One rep ------------------------------------------------------------

OpResult run_op(const Inputs& inputs, const Kernel& kernel) {
  const WorkloadSpec& spec = *inputs.spec;
  if (spec.kind == Kind::kStream) return run_stream_op(inputs, kernel);
  return run_system_op(inputs, kernel, system_engine(spec),
                       default_telemetry(spec));
}

/// Checks one op's result against the reference and records the op;
/// returns its host seconds.
double checked(const std::string& label, const Kernel& kernel,
               const OpResult& result, Reference& reference, Report& report,
               bool with_stats = true) {
  std::string error = result.error;
  if (error.empty()) {
    error = reference.check(kernel.name, result.fp, result.visited,
                            with_stats);
  }
  report.op(label + " " + kernel.name, error);
  return result.seconds;
}

/// Set-up: trace generation, then construction of every kernel's model
/// (the device + memory path run_policy builds, or the loaded System).
Inputs set_up(const WorkloadSpec& spec, std::uint64_t seed,
              double scale_factor) {
  Inputs inputs = make_inputs(spec, seed, scale_factor);
  for (const Kernel& kernel : inputs.kernels) {
    if (spec.kind == Kind::kSystem) {
      (void)make_system(inputs, kernel);
    } else {
      mac3d::HmcDevice device(inputs.config);
      (void)mac3d::make_memory_path(inputs.config, device);
    }
  }
  return inputs;
}

/// Peak resident set of this process image, in MiB. Linux carries
/// ru_maxrss across execve, so it would report a larger launcher's peak
/// (run.py's Python) instead; VmHWM belongs to this image alone.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---- Untraced run: end-to-end metrics ------------------------------------

void run_untraced(const WorkloadSpec& spec, std::uint64_t seed,
                  double seconds, Reference& reference, Report& report) {
  // A set-up phase before the warm-up and before every timed rep. A phase
  // sets up once, and again while it has taken under kSetupPhaseS (at
  // most kMaxSetupsPerPhase times); each set-up frees the last inputs
  // first, so only one copy is ever resident. setup_s is the median over
  // every set-up. One burst of set-ups would sample a single moment of a
  // host whose speed drifts: over ten seeds, system4-observed's setup_s
  // spread 52% of its median that way, against 13% with the phases. The
  // reps run on their phase's inputs and are checked against the
  // warm-up's fingerprints, so a set-up that generated other traces for
  // the seed fails them.
  std::vector<double> setup_s;
  Inputs inputs;
  const auto set_up_phase = [&] {
    const Clock::time_point begin = Clock::now();
    for (std::size_t n = 0;
         n == 0 || (n < kMaxSetupsPerPhase &&
                    seconds_since(begin) < kSetupPhaseS);
         ++n) {
      inputs = Inputs{};
      const Clock::time_point start = Clock::now();
      inputs = set_up(spec, seed, 1.0);
      setup_s.push_back(seconds_since(start));
    }
  };
  set_up_phase();
  for (const Kernel& kernel : inputs.kernels) {  // warm-up = rep 0
    const OpResult result = run_op(inputs, kernel);
    std::string error = result.error;
    if (error.empty()) error = reference.check(kernel.name, result.fp);
    if (!error.empty()) report.fail("warm-up " + kernel.name + ": " + error);
  }
  // The peak of a process that set up once and ran every kernel. Later
  // phases free the inputs and build them again, which fragments the heap
  // and would add a few MB that vary from run to run.
  const double rss_mb = peak_rss_mb();

  // Host load only ever adds time to a deterministic run, so req_per_s
  // takes each kernel's fastest run: the least disturbed estimate of its
  // cost. On a shared host, slow phases of tens of seconds otherwise move
  // the median of a run's reps by 20% or more. The per-rep rates give the
  // spread and n. The workload fixes the number of timed reps, so both
  // sides of a comparison take the fastest of the same n; `seconds` only
  // ends the reps early on a host too slow to fit them (set-up phases
  // not counted).
  std::vector<double> rep_rates;
  std::vector<double> fastest_s(spec.kernels.size(), 0.0);
  std::uint64_t requests = 0;
  double reps_s = 0.0;
  while (rep_rates.size() < spec.timed_reps &&
         (rep_rates.size() < kMinTimedReps || reps_s < seconds)) {
    set_up_phase();
    const Clock::time_point rep_start = Clock::now();
    double host_s = 0.0;
    requests = 0;
    for (std::size_t k = 0; k < inputs.kernels.size(); ++k) {
      const Kernel& kernel = inputs.kernels[k];
      const OpResult result = run_op(inputs, kernel);
      checked("rep " + std::to_string(rep_rates.size() + 1), kernel, result,
              reference, report);
      report.add_kernel_seconds(kernel.name, result.seconds);
      host_s += result.seconds;
      requests += result.fp.completions;
      if (rep_rates.empty() || result.seconds < fastest_s[k]) {
        fastest_s[k] = result.seconds;
      }
    }
    rep_rates.push_back(host_s > 0.0 ? static_cast<double>(requests) / host_s
                                     : 0.0);
    reps_s += seconds_since(rep_start);
  }
  double fastest_total_s = 0.0;
  for (const double seconds_k : fastest_s) fastest_total_s += seconds_k;
  report.add("req_per_s", "1/s",
             fastest_total_s > 0.0
                 ? static_cast<double>(requests) / fastest_total_s
                 : 0.0,
             rep_rates);
  report.add("setup_s", "s", setup_s);
  report.add("peak_rss_mb", "MB", rss_mb);
}

// ---- Traced run: per-layer metrics ---------------------------------------

/// Runs `op` once per kernel, checking each result against the reference;
/// returns the summed host seconds.
template <typename Op>
double each_kernel(const Inputs& inputs, const std::string& label,
                   Reference& reference, Report& report, Op&& op) {
  double total = 0.0;
  for (const Kernel& kernel : inputs.kernels) {
    total += checked(label, kernel, op(kernel), reference, report);
  }
  return total;
}

/// Each layer's median over the traced rounds. A sampled span scales up
/// 2048-fold, so one host preemption inside it can inflate a round's layer
/// by a quarter of a short loop; the median drops that round.
Attribution median_attribution(const std::vector<Attribution>& rounds) {
  Attribution out = rounds.front();  // the counts agree across rounds
  const auto median_of = [&rounds](const auto& field) {
    std::vector<double> values;
    for (const Attribution& round : rounds) values.push_back(field(round));
    return median(values);
  };
  for (double Attribution::*field :
       {&Attribution::feed_s, &Attribution::try_accept_s, &Attribution::tick_s,
        &Attribution::drain_s, &Attribution::sim_oracle_s,
        &Attribution::node_tick_s, &Attribution::arch_oracle_s,
        &Attribution::drain_check_s, &Attribution::loop_s}) {
    out.*field = median_of([field](const Attribution& a) { return a.*field; });
  }
  for (std::size_t i = 0; i < out.node_tick_by_node_s.size(); ++i) {
    out.node_tick_by_node_s[i] = median_of(
        [i](const Attribution& a) { return a.node_tick_by_node_s[i]; });
  }
  return out;
}

OpResult as_op(const CopyResult& copy) {
  return {copy.fp, copy.visited, copy.seconds, ""};
}

/// Event engine against event-parallel at 1, 2 and 4 workers (ROADMAP
/// item 2), on the workload's first kernel; system runs stop at
/// kSpeedupCycles so the slow parallel runs stay short. One run each, so
/// the ratios carry the host's run-to-run noise. Every parallel run must
/// reproduce the event run's fingerprint.
constexpr mac3d::Cycle kSpeedupCycles = 300'000;

std::map<std::uint32_t, double> event_parallel_speedups(const Inputs& inputs,
                                                        Report& report) {
  const Kernel& kernel = inputs.kernels.front();
  const auto run = [&](std::uint32_t threads) {
    if (inputs.spec->kind == Kind::kStream) {
      return run_stream_op(inputs, kernel, false, threads);
    }
    return run_system_op(inputs, kernel,
                         threads == 0 ? mac3d::Engine::kEvent
                                      : mac3d::Engine::kEventParallel,
                         Telemetry{}, threads, kSpeedupCycles);
  };
  const OpResult event = run(0);
  report.op("speedup event " + kernel.name, event.error);
  std::map<std::uint32_t, double> speedup;
  for (const std::uint32_t threads : {1U, 2U, 4U}) {
    const OpResult parallel = run(threads);
    std::string error = parallel.error;
    if (error.empty() && !(parallel.fp == event.fp)) {
      error = "fingerprint " + to_string(parallel.fp) + " != event " +
              to_string(event.fp);
    }
    report.op("speedup event-parallel t" + std::to_string(threads) + " " +
                  kernel.name,
              error);
    speedup[threads] =
        parallel.seconds > 0.0 ? event.seconds / parallel.seconds : 0.0;
  }
  return speedup;
}

void run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                Reference& reference, Report& report) {
  const Clock::time_point run_start = Clock::now();
  const Inputs inputs = set_up(spec, seed, 1.0);
  const bool stream = spec.kind == Kind::kStream;
  const mac3d::Engine engine = system_engine(spec);
  const auto real_op = [&](const Kernel& kernel, const Telemetry& telemetry) {
    return stream ? run_stream_op(inputs, kernel)
                  : run_system_op(inputs, kernel, engine, telemetry);
  };
  const auto bare_op = [&](const Kernel& kernel) {
    return real_op(kernel, Telemetry{});
  };

  // Rounds that run, kernel by kernel, the untraced and traced copies back
  // to back, alternating which goes first. Paired this closely, both
  // copies of a kernel see the same phase of a host whose speed drifts
  // over seconds. Round 0 first runs the real bare run (run_policy or the
  // workload's System engine): it is the reference every later run is
  // checked against, and the memory-path ratio pairs it with round 0's
  // untraced copy. Round 2 runs the traced copy alone, because the layer
  // medians need three traced rounds but the copy ratios need only two.
  // More rounds run while they fit in kRoundsBudgetS. No round after
  // round 0 starts if, at the pace so far, it would end past
  // kRoundsDeadlineS; the medians then take fewer rounds. Each copy kind
  // keeps each kernel's fastest run over the rounds that run both, so a
  // burst of host load cannot skew the ratio between them and both take
  // their minimum over the same n.
  const SpanCost span_cost = calibrate_span_cost();
  const std::size_t kernels = inputs.kernels.size();
  std::vector<double> real_k(kernels, 0.0);
  std::vector<double> first_copy_k(kernels, 0.0);
  std::vector<double> copy_k(kernels, 0.0);
  std::vector<double> traced_k(kernels, 0.0);
  const auto keep_fastest = [](double& best, double seconds) {
    if (best == 0.0 || seconds < best) best = seconds;
  };
  const auto sum = [](const std::vector<double>& values) {
    return std::accumulate(values.begin(), values.end(), 0.0);
  };
  std::vector<Attribution> traced_rounds;
  std::uint64_t visited = 0;
  std::uint64_t cycles = 0;
  std::uint64_t packets = 0;
  const Clock::time_point rounds_start = Clock::now();
  for (int round = 0; round < kMaxRounds; ++round) {
    const bool traced_only = round == 2;
    if (round > 0) {
      const double round_s =
          sum(traced_k) + (traced_only ? 0.0 : sum(copy_k));
      if ((round >= kMinRounds &&
           seconds_since(rounds_start) >= kRoundsBudgetS) ||
          seconds_since(run_start) + round_s > kRoundsDeadlineS) {
        break;
      }
    }
    Attribution round_layers;
    for (std::size_t k = 0; k < kernels; ++k) {
      const Kernel& kernel = inputs.kernels[k];
      if (round == 0) {
        real_k[k] = checked("real", kernel, bare_op(kernel), reference,
                            report);
      }
      const bool traced_first =
          (static_cast<std::size_t>(round) + k) % 2 == 1;
      for (const bool traced : {traced_first, !traced_first}) {
        if (traced_only && !traced) continue;
        const CopyResult copy =
            stream ? stream_copy(inputs, kernel, traced, span_cost)
                   : system_copy(inputs, kernel, engine, traced, span_cost);
        const double seconds =
            checked(traced ? "traced copy" : "copy", kernel, as_op(copy),
                    reference, report, !stream);
        if (!traced_only) {
          keep_fastest(traced ? traced_k[k] : copy_k[k], seconds);
        }
        if (traced) round_layers.add(copy.layers);
        if (round == 0 && !traced) {
          first_copy_k[k] = copy.seconds;
          visited += copy.visited;
          cycles += copy.fp.cycles;
          packets += copy.fp.packets;
        }
      }
    }
    traced_rounds.push_back(round_layers);
  }
  const double real_s = sum(real_k);
  const double copy_s = sum(copy_k);
  const double traced_s = sum(traced_k);
  const Attribution layers = median_attribution(traced_rounds);
  const std::map<std::uint32_t, double> speedup =
      event_parallel_speedups(inputs, report);

  // Telemetry layers, each attached alone and then all together, less the
  // bare run. Attached and bare runs alternate, one of each and more while
  // they fit in a second, and each side keeps its fastest. The census adds
  // seconds to every run, so its costs rest on a single pair.
  std::map<std::string, double> attached;
  if (spec.observed) {
    const std::vector<std::pair<std::string, Telemetry>> layers_on = {
        {"census", {true, false, false, false, false}},
        {"lifecycle", {false, true, false, false, false}},
        {"sampler", {false, false, true, false, false}},
        {"snapshot", {false, false, false, true, false}},
        {"all", default_telemetry(spec)},
    };
    for (const auto& [name, telemetry] : layers_on) {
      double with = 0.0;
      double without = 0.0;
      const Clock::time_point start = Clock::now();
      for (int run = 0; run == 0 || (run < kMaxRounds &&
                                     seconds_since(start) < 1.0);
           ++run) {
        const double bare =
            each_kernel(inputs, "real", reference, report, bare_op);
        const double seconds =
            each_kernel(inputs, "attached " + name, reference, report,
                        [&](const Kernel& kernel) {
                          return real_op(kernel, telemetry);
                        });
        with = run == 0 ? seconds : std::min(with, seconds);
        without = run == 0 ? bare : std::min(without, bare);
      }
      attached[name] = with - without;
    }
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  report.add("sim.feed.self_s", "s", layers.feed_s);
  report.add("sim.feed.accept_ratio", "ratio",
             ratio(static_cast<double>(layers.accepted),
                   static_cast<double>(layers.presented)));
  report.add("path.try_accept.self_s", "s", layers.try_accept_s);
  report.add("path.try_accept.calls", "count",
             static_cast<double>(layers.presented));
  report.add("path.tick.self_s", "s", layers.tick_s);
  // The feed loops tick and drain the path once per visited cycle.
  const double path_calls = stream ? static_cast<double>(visited) : 0.0;
  report.add("path.tick.calls", "count", path_calls);
  report.add("path.drain.self_s", "s", layers.drain_s);
  report.add("path.drain.empty_frac", "ratio",
             ratio(static_cast<double>(layers.empty_drains), path_calls));
  report.add("sim.oracle.self_s", "s", layers.sim_oracle_s);
  report.add("arch.node_tick.self_s", "s", layers.node_tick_s);
  report.add("arch.node_tick.calls", "count",
             static_cast<double>(layers.node_ticks));
  report.add("arch.node_tick.imbalance", "ratio", layers.node_imbalance());
  report.add("arch.oracle.self_s", "s", layers.arch_oracle_s);
  report.add("arch.drain_check.self_s", "s", layers.drain_check_s);
  report.add("arch.fabric.messages", "count",
             static_cast<double>(layers.fabric_messages));
  report.add("engine.visited_cycles", "count", static_cast<double>(visited));
  report.add("engine.skip_ratio", "ratio",
             ratio(static_cast<double>(cycles), static_cast<double>(visited)));
  report.add("engine.ns_per_visited_cycle", "ns",
             ratio(real_s * 1e9, static_cast<double>(visited)));
  for (const char* name : {"census", "lifecycle", "sampler", "snapshot",
                           "all"}) {
    report.add(std::string("obs.") + name + ".attached_s", "s",
               attached.count(name) != 0 ? attached[name] : 0.0);
  }
  report.add("mem.packets", "count", static_cast<double>(packets));
  for (const auto& [threads, value] : speedup) {
    report.add("engine.event_parallel.speedup_t" + std::to_string(threads),
               "ratio", value);
  }
  report.add("sim.dispatch.memory_path_ratio", "ratio",
             stream ? ratio(sum(first_copy_k), real_s) : 0.0);
  report.add("trace.overhead_frac", "ratio", ratio(traced_s, copy_s) - 1.0);
  report.add("trace.unattributed_frac", "ratio",
             1.0 - ratio(layers.attributed_s(), layers.loop_s));
  std::uint64_t clipped = 0;
  for (const Attribution& round : traced_rounds) {
    clipped += round.clipped_spans;
  }
  const double run_s = seconds_since(run_start);
  std::printf("  span cost %.1f/%.1f ns; real %.3f s, copy %.3f s, "
              "traced %.3f s; %zu traced rounds, %llu spans clipped, %.1f s\n",
              span_cost.inside * 1e9, span_cost.whole * 1e9, real_s, copy_s,
              traced_s, traced_rounds.size(),
              static_cast<unsigned long long>(clipped), run_s);
  if (run_s > kTracedCapS) {
    char message[64];
    std::snprintf(message, sizeof(message),
                  "traced run took %.1f s, over the %.0f s cap", run_s,
                  kTracedCapS);
    report.fail(message);
  }
}

// ---- --write-expected and --smoke ----------------------------------------

int write_expected_file() {
  FingerprintMap map;
  for (const WorkloadSpec& spec : workload_specs()) {
    const Inputs inputs = set_up(spec, kExpectedSeed, 1.0);
    for (const Kernel& kernel : inputs.kernels) {
      const OpResult result = run_op(inputs, kernel);
      if (!result.error.empty()) {
        std::fprintf(stderr, "mac3d_perf: %s %s: %s\n", spec.name,
                     kernel.name.c_str(), result.error.c_str());
        return 1;
      }
      map[spec.name][kernel.name] = result.fp;
    }
    std::printf("%s: %zu kernels\n", spec.name, inputs.kernels.size());
  }
  if (!write_expected(map)) {
    std::fprintf(stderr, "mac3d_perf: cannot write %s\n",
                 kExpectedPath.c_str());
    return 2;
  }
  std::printf("wrote %s\n", kExpectedPath.c_str());
  return 0;
}

/// Every workload at tiny scale for one rep, then copy-vs-real equality
/// (visited cycles included) for every policy x feed and for System
/// {strict, event} x {1, 4} nodes, on seed 42 and one other seed.
int smoke() {
  Report report;
  for (const WorkloadSpec& spec : workload_specs()) {
    const Clock::time_point start = Clock::now();
    const Inputs inputs = set_up(spec, kExpectedSeed, kSmokeScale);
    for (const Kernel& kernel : inputs.kernels) {
      report.op(std::string(spec.name) + " " + kernel.name,
                run_op(inputs, kernel).error);
    }
    std::printf("  %s: %.2f s\n", spec.name, seconds_since(start));
  }
  const SpanCost span_cost = calibrate_span_cost();
  for (const std::uint64_t seed : {kExpectedSeed, kSmokeOtherSeed}) {
    std::vector<WorkloadSpec> grid;
    for (const auto policy :
         {mac3d::CoalescerPolicy::kMac, mac3d::CoalescerPolicy::kRaw,
          mac3d::CoalescerPolicy::kMshr, mac3d::CoalescerPolicy::kWarp}) {
      for (const auto feed :
           {mac3d::FeedMode::kStreaming, mac3d::FeedMode::kLaneGroup}) {
        grid.push_back({"grid", Kind::kStream, policy, feed, true, 1, 8,
                        false, {{"sg", 1.0}, {"hpcg", 1.0}, {"sort", 1.0}}});
      }
    }
    for (const std::uint32_t nodes : {1U, 4U}) {
      for (const bool event : {false, true}) {
        grid.push_back({"grid", Kind::kSystem, mac3d::CoalescerPolicy::kMac,
                        mac3d::FeedMode::kStreaming, event, nodes, 16, false,
                        {{"sg", 1.0}}});
      }
    }
    for (const WorkloadSpec& spec : grid) {
      const Clock::time_point start = Clock::now();
      const Inputs inputs = set_up(spec, seed, kSmokeScale);
      const bool stream = spec.kind == Kind::kStream;
      const std::string label =
          std::string(stream ? mac3d::to_string(spec.policy) : "system") +
          (stream ? (spec.feed == mac3d::FeedMode::kLaneGroup ? "/lane-group"
                                                              : "/streaming")
                  : "/" + std::to_string(spec.nodes) + "n" +
                        (spec.event_engine ? "/event" : "/strict")) +
          " seed " + std::to_string(seed);
      Reference reference(label, nullptr);
      const mac3d::Engine engine = system_engine(spec);
      for (const Kernel& kernel : inputs.kernels) {
        const OpResult real =
            stream ? run_stream_op(inputs, kernel, true)
                   : run_system_op(inputs, kernel, engine, Telemetry{});
        std::string error = real.error;
        if (error.empty()) {
          error = reference.check(kernel.name, real.fp, real.visited);
        }
        for (const bool traced : {false, true}) {
          const CopyResult copy =
              stream ? stream_copy(inputs, kernel, traced, span_cost)
                     : system_copy(inputs, kernel, engine, traced, span_cost);
          if (error.empty()) {
            error = reference.check(kernel.name, copy.fp, copy.visited,
                                    !stream);
          }
        }
        report.op(label + " copy " + kernel.name, error);
      }
      std::printf("  %s copies: %.2f s\n", label.c_str(),
                  seconds_since(start));
    }
  }
  report.print();
  std::printf("%s\n", report.result_line().c_str());
  return report.correct() ? 0 : 1;
}

// ---- Command line ---------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: mac3d_perf --workload NAME [--seed N] [--seconds S] "
               "[--trace] [--json FILE]\n"
               "       mac3d_perf --write-expected | --smoke\n"
               "workloads:");
  for (const WorkloadSpec& spec : workload_specs()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = kExpectedSeed;
  double seconds = 10.0;
  bool traced = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (arg == "--smoke") return smoke();
    if (arg == "--write-expected") return write_expected_file();
    if (arg == "--trace") {
      traced = true;
      continue;
    }
    const std::optional<std::string> text = value();
    if (!text) return usage();
    char* end = nullptr;
    if (arg == "--workload") {
      workload = *text;
    } else if (arg == "--json") {
      json_path = *text;
    } else if (arg == "--seed") {
      seed = std::strtoull(text->c_str(), &end, 10);
      if (end == text->c_str() || *end != '\0') return usage();
    } else if (arg == "--seconds") {
      seconds = std::strtod(text->c_str(), &end);
      if (end == text->c_str() || *end != '\0' || !(seconds >= 0.0)) {
        return usage();
      }
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = find_spec(workload);
  if (spec == nullptr) return usage();

  FingerprintMap expected;
  if (seed == kExpectedSeed) {
    std::string error;
    if (!load_expected(expected, error)) {
      std::fprintf(stderr, "mac3d_perf: %s\n", error.c_str());
      return 2;
    }
  }
  Reference reference(spec->name,
                      seed == kExpectedSeed ? &expected : nullptr);
  Report report;
  const std::string header = std::string("mac3d_perf ") + spec->name +
                             " seed " + std::to_string(seed) +
                             (traced ? " (traced)" : "");
  std::printf("%s\n", header.c_str());
  if (traced) {
    run_traced(*spec, seed, reference, report);
  } else {
    run_untraced(*spec, seed, seconds, reference, report);
  }
  report.print();
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << report.detail_json(spec->name, seed, traced);
    if (!file) {
      std::fprintf(stderr, "mac3d_perf: cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  std::printf("%s\n", report.result_line().c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  try {
    return perf::main_impl(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mac3d_perf: %s\n", error.what());
    return 2;
  }
}
