// Differential equivalence suite for the two engines (docs/PARALLELISM.md):
// Engine::kEvent (fast-forward) must be bit-identical to Engine::kSerial:
// same StatSets (compared as full-precision JSON), same run reports, same
// invariant-check counters, same idle-census exports — for every path and
// feed mode. System::run_event must likewise match System::run.
// Randomized-config fuzz loops (streaming paths and multi-node Systems)
// widen the net beyond the hand-picked grid, and the unwind tests throw
// out of both engines' loops mid-run. The run-level `--jobs` fan-out
// (run_jobs) must leave every result identical for any jobs value.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "check/check.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "obs/lifecycle.hpp"
#include "obs/profiler.hpp"
#include "obs/run_report.hpp"
#include "obs/sampler.hpp"
#include "obs/snapshot.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "trace/trace.hpp"

namespace mac3d {
namespace {

/// Synthetic trace with tunable row locality (the test_properties.cpp
/// generator): sequential stream with probability `locality`, random row
/// jumps otherwise, with a fence/store/atomic sprinkle so every request
/// kind crosses the engine boundary.
MemoryTrace locality_trace(double locality, std::uint32_t threads,
                           std::uint32_t per_thread, std::uint64_t seed) {
  MemoryTrace trace(threads);
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> position(threads, 0);
  for (std::uint32_t i = 0; i < per_thread; ++i) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      if (rng.uniform() >= locality) {
        position[t] = rng.below(1ull << 22) * 16;
      } else {
        position[t] += 8;
      }
      const Address addr = (i * threads + t) % 4 == 0
                               ? position[t]
                               : (static_cast<Address>(i) * threads + t) * 8;
      trace.instr(static_cast<ThreadId>(t), 2);
      switch (rng.below(24)) {
        case 0: trace.atomic(static_cast<ThreadId>(t), addr & ~0x7ull, 8);
                break;
        case 1: trace.fence(static_cast<ThreadId>(t)); break;
        case 2: trace.store(static_cast<ThreadId>(t), addr & ~0x7ull, 8);
                break;
        default: trace.load(static_cast<ThreadId>(t), addr & ~0x7ull); break;
      }
    }
  }
  return trace;
}

CoalescerPolicy policy_of(const std::string& path) {
  CoalescerPolicy policy = CoalescerPolicy::kMac;
  EXPECT_TRUE(parse_policy(path, policy)) << path;
  return policy;
}

/// Run one path under the given options and render everything comparable
/// about the run into one JSON string: the full StatSet, the check
/// counters and the idle-census export. String equality == bit identity
/// (StatSet::to_json prints doubles at full round-trip precision).
std::string run_fingerprint(const std::string& path, const MemoryTrace& trace,
                            const SimConfig& config, std::uint32_t threads,
                            DriveOptions options) {
  CheckContext checks(CheckContext::FailMode::kCount);
  ActivityCensus census;
  options.checks = &checks;
  options.census = &census;
  const DriverResult result =
      run_policy(policy_of(path), trace, config, threads, options);
  StatSet stats;
  result.collect(stats, path);
  stats.set("checks.run", static_cast<double>(result.checks_run));
  stats.set("checks.violations", static_cast<double>(result.check_violations));
  return stats.to_json() + "\n" + census.to_json();
}

const char* engine_name(Engine engine) {
  return engine == Engine::kSerial ? "serial" : "event";
}

struct GridCase {
  const char* path;
  FeedMode mode;
};

const char* mode_name(FeedMode mode) {
  switch (mode) {
    case FeedMode::kStreaming: return "_streaming";
    case FeedMode::kClosedLoop: return "_closedloop";
    case FeedMode::kLaneGroup: return "_lanegroup";
  }
  return "_unknown";
}

std::string case_name(const ::testing::TestParamInfo<GridCase>& info) {
  return std::string(info.param.path) + mode_name(info.param.mode);
}

// ------------------------------------------- paths x feed modes, full grid
class EngineGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(EngineGrid, EngineMatchesSerialBitForBit) {
  const GridCase& c = GetParam();
  SimConfig config;
  const MemoryTrace trace = locality_trace(0.6, 8, 300, 17);

  DriveOptions serial;
  serial.mode = c.mode;
  serial.engine = Engine::kSerial;
  const std::string expected =
      run_fingerprint(c.path, trace, config, 8, serial);

  DriveOptions event = serial;
  event.engine = Engine::kEvent;
  const std::string actual = run_fingerprint(c.path, trace, config, 8, event);

  EXPECT_EQ(expected, actual);
}

std::vector<GridCase> grid_cases() {
  std::vector<GridCase> cases;
  for (const char* path : {"mac", "raw", "mshr", "warp"}) {
    // The SIMT lockstep feed (a warp scheduler's issue pattern) must be
    // engine-invariant for every policy, not just the warp coalescer.
    for (const FeedMode mode : {FeedMode::kStreaming, FeedMode::kClosedLoop,
                                FeedMode::kLaneGroup}) {
      cases.push_back({path, mode});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPathsAndFeeds, EngineGrid,
                         ::testing::ValuesIn(grid_cases()), case_name);

// ----------------------------------------------------- run-report parity
TEST(ReportEquivalence, SerialAndEventReportsRenderIdentically) {
  SimConfig config;
  const MemoryTrace trace = locality_trace(0.5, 8, 250, 29);

  const auto render = [&](Engine engine) {
    // A lifecycle tracer rides along as `mac3d run --report` attaches one,
    // and its per-path stage sections go into the report: the stamp
    // stream itself must be engine-invariant and in stage order.
    LifecycleTracer tracer;
    DriveOptions options;
    options.engine = engine;
    options.sink = &tracer;
    std::vector<DriverResult> results;
    for (const char* path : {"raw", "mac", "mshr", "warp"}) {
      tracer.begin_path(path);
      results.push_back(
          run_policy(policy_of(path), trace, config, 8, options));
    }
    tracer.finish();
    EXPECT_EQ(tracer.monotonicity_errors(), 0u) << engine_name(engine);
    RunReport report;
    report.set_config(config);
    for (const DriverResult& result : results) {
      StatSet stats;
      result.collect(stats, result.path);
      report.set_path_stats(result.path, stats);
      const LifecycleTracer::PathTelemetry* telemetry =
          tracer.path(result.path);
      if (telemetry == nullptr) continue;
      for (std::size_t s = 0; s < kStageCount; ++s) {
        if (telemetry->stage_latency[s].count() == 0) continue;
        report.add_path_stage(result.path, to_string(static_cast<Stage>(s)),
                              telemetry->stage_latency[s]);
      }
    }
    return report.to_json();
  };

  // The report deliberately carries no engine marker (apps/mac3d_cli.cpp),
  // so reports of the same run under either engine are the same bytes —
  // the CI equivalence job diffs them as artifacts.
  EXPECT_EQ(render(Engine::kSerial), render(Engine::kEvent));
}

// ---------------------------------- closed-loop System engine equivalence
TEST(SystemEquivalence, RunEventMatchesRunAndSkipsCycles) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = locality_trace(0.5, 8, 200, 41);

  System reference(config);
  reference.attach_trace(trace);
  const SystemRunSummary expected = reference.run();
  ASSERT_TRUE(expected.completed);
  // The strict engine visits every cycle by definition.
  EXPECT_EQ(expected.visited_cycles, expected.cycles);

  System system(config);
  system.attach_trace(trace);
  const SystemRunSummary actual = system.run_event();
  EXPECT_TRUE(actual.completed);
  EXPECT_EQ(expected.cycles, actual.cycles);
  EXPECT_EQ(expected.requests, actual.requests);
  EXPECT_EQ(expected.completions, actual.completions);
  EXPECT_EQ(expected.stats.to_json(), actual.stats.to_json());
  // The whole point of the engine: it must have jumped over dead spans.
  EXPECT_LT(actual.visited_cycles, actual.cycles);
  EXPECT_GT(actual.visited_cycles, 0u);
}

TEST(SystemEquivalence, CensusAndMetricsMatchUnderBothSystemEngines) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = locality_trace(0.5, 8, 150, 59);

  const auto fingerprint = [&](bool event) {
    System system(config);
    ActivityCensus census;
    system.attach_census(&census);
    system.attach_trace(trace);
    const SystemRunSummary summary = event ? system.run_event() : system.run();
    EXPECT_TRUE(summary.completed);
    StatSet metrics;
    system.collect_metrics(summary, metrics);
    return census.to_json() + "\n" + metrics.to_json();
  };

  EXPECT_EQ(fingerprint(false), fingerprint(true));
}

TEST(SystemEquivalence, MetricsSectionsAreByteIdentical) {
  SimConfig config;
  config.nodes = 4;
  config.cores = 2;
  const MemoryTrace trace = locality_trace(0.5, 8, 200, 61);

  const auto export_metrics = [&](bool event) {
    System system(config);
    system.attach_trace(trace);
    const SystemRunSummary summary = event ? system.run_event() : system.run();
    EXPECT_TRUE(summary.completed);
    StatSet metrics;
    system.collect_metrics(summary, metrics);
    RunReport report;
    report.set_metrics(metrics);
    return report.to_json();
  };

  const std::string serial = export_metrics(false);
  EXPECT_EQ(serial, export_metrics(true));
  // Non-trivial export: per-node and fabric namespaces are populated.
  EXPECT_NE(serial.find("node3.router.routed"), std::string::npos);
  EXPECT_NE(serial.find("fabric.link01.requests"), std::string::npos);
  EXPECT_NE(serial.find("system.cycles"), std::string::npos);
}

TEST(SystemEquivalence, SingleNodeNeedsNoFabricAndStillMatches) {
  SimConfig config;  // nodes = 1: no fabric
  const MemoryTrace trace = locality_trace(0.7, 4, 200, 43);

  System reference(config);
  reference.attach_trace(trace);
  const SystemRunSummary expected = reference.run();

  System system(config);
  system.attach_trace(trace);
  const SystemRunSummary actual = system.run_event();
  EXPECT_EQ(expected.stats.to_json(), actual.stats.to_json());
}

TEST(SystemEquivalence, ZeroHopFabricIsRejectedByEveryEngine) {
  // A zero-hop fabric delivers within the sending cycle, which per-node
  // wake cannot reproduce, so both engines must refuse it identically —
  // run() accepting what run_event() rejects would silently break the
  // equivalence contract.
  SimConfig config;
  config.nodes = 2;
  config.remote_hop_cycles = 0;
  const MemoryTrace trace = locality_trace(0.5, 4, 50, 47);
  {
    System system(config);
    system.attach_trace(trace);
    EXPECT_THROW(system.run(), std::invalid_argument) << "run";
  }
  {
    System system(config);
    system.attach_trace(trace);
    EXPECT_THROW(system.run_event(), std::invalid_argument) << "run_event";
  }
  // A single node never crosses the fabric, so zero hops stays legal there.
  SimConfig single = config;
  single.nodes = 1;
  System system(single);
  system.attach_trace(trace);  // attach_trace keeps a reference
  EXPECT_TRUE(system.run().completed);
}

TEST(SystemEquivalence, ChecksMatchUnderBothEngines) {
  SimConfig config;
  config.nodes = 2;
  const MemoryTrace trace = locality_trace(0.6, 8, 150, 53);

  const auto counters = [&](bool event) {
    System system(config);
    system.attach_trace(trace);
    CheckContext checks(CheckContext::FailMode::kCount);
    system.attach_checks(&checks);
    const SystemRunSummary summary = event ? system.run_event() : system.run();
    EXPECT_TRUE(summary.completed);
    checks.finalize();
    return std::pair<std::uint64_t, std::uint64_t>(checks.checks_run(),
                                                   checks.violations());
  };

  const auto serial = counters(false);
  const auto event = counters(true);
  EXPECT_EQ(serial.first, event.first);
  EXPECT_EQ(serial.second, event.second);
  EXPECT_EQ(event.second, 0u);
}

// ------------------------------------ per-node wake in the System engines
/// `trace` with every memory record moved into the memory of node
/// `first_home + rng.below(homes)` (node span `span`), so the System's
/// fabric carries remote traffic in the chosen directions.
MemoryTrace rehome(const MemoryTrace& trace, std::uint32_t first_home,
                   std::uint32_t homes, Address span, std::uint64_t seed) {
  MemoryTrace out(trace.threads());
  Xoshiro256 rng(seed);
  for (std::uint32_t t = 0; t < trace.threads(); ++t) {
    for (MemRecord record : trace.thread(static_cast<ThreadId>(t))) {
      if (record.op != MemOp::kFence) {
        record.addr += (first_home + rng.below(homes)) * span;
      }
      out.append(static_cast<ThreadId>(t), record);
    }
  }
  return out;
}

/// One System run with every telemetry layer and the invariant checks
/// attached: all of its exports, concatenated, plus the check counters.
struct ObservedSystemRun {
  SystemRunSummary summary;
  std::string exports;
  std::uint64_t checks_run = 0;
  std::uint64_t violations = 0;
};

ObservedSystemRun observed_system_run(const SimConfig& config,
                                      const MemoryTrace& trace, Engine engine,
                                      Cycle max_cycles = 2'000'000'000ULL) {
  System system(config);
  ActivityCensus census;
  CycleSampler sampler(97);
  SnapshotStreamer snapshot(251);
  CheckContext checks(CheckContext::FailMode::kCount);
  system.attach_census(&census);
  system.attach_sampler(&sampler);
  system.attach_snapshot(&snapshot);
  system.attach_checks(&checks);
  system.attach_trace(trace);
  ObservedSystemRun out;
  out.summary = engine == Engine::kSerial ? system.run(max_cycles)
                                          : system.run_event(max_cycles);
  checks.finalize();
  StatSet metrics;
  system.collect_metrics(out.summary, metrics);
  out.exports = out.summary.stats.to_json() + "\n" + census.to_json() +
                "\n" + metrics.to_json() + "\n" + sampler.to_csv() + "\n" +
                snapshot.str();
  out.checks_run = checks.checks_run();
  out.violations = checks.violations();
  return out;
}

/// run_event() against run(): byte-equal exports and check counters, the
/// strict engine ticking every node every cycle and the event engine no
/// more than every node per visited cycle. The event run is capped at
/// run()'s cycle count, so an engine that misses work fails instead of
/// hanging. Returns run_event()'s summary.
SystemRunSummary expect_system_engines_agree(const SimConfig& config,
                                             const MemoryTrace& trace,
                                             const std::string& label) {
  const ObservedSystemRun reference =
      observed_system_run(config, trace, Engine::kSerial);
  if (!reference.summary.completed) {
    ADD_FAILURE() << label << ": run() did not complete";
    return reference.summary;
  }
  EXPECT_EQ(reference.violations, 0u) << label;
  EXPECT_EQ(reference.summary.node_ticks,
            reference.summary.cycles * config.nodes)
      << label;
  const ObservedSystemRun event = observed_system_run(
      config, trace, Engine::kEvent, reference.summary.cycles);
  EXPECT_EQ(reference.summary.cycles, event.summary.cycles) << label;
  EXPECT_EQ(reference.exports, event.exports) << label;
  EXPECT_EQ(reference.checks_run, event.checks_run) << label;
  EXPECT_EQ(reference.violations, event.violations) << label;
  EXPECT_LE(event.summary.node_ticks,
            event.summary.visited_cycles * config.nodes)
      << label;
  return event.summary;
}

TEST(SystemWake, ThreadlessNodeWakesOnlyForItsRemoteRequests) {
  // Node 1 owns no threads: every record homes on its memory, so it works
  // only when node 0's requests arrive over the fabric.
  for (const std::uint32_t hop : {1u, 200u}) {
    SimConfig config;
    config.nodes = 2;
    config.cores = 2;
    config.remote_hop_cycles = hop;
    config.validate();
    const MemoryTrace trace = rehome(locality_trace(0.5, 1, 150, 67), 1, 1,
                                     config.hmc_capacity, 71);
    const std::string label = "hop " + std::to_string(hop);
    const SystemRunSummary event =
        expect_system_engines_agree(config, trace, label);
    EXPECT_GT(event.completions, 0u) << label;
    EXPECT_LT(event.node_ticks, event.visited_cycles * 2) << label;
  }
}

// Random node counts, core counts, hop latencies, queue depths and
// per-node policy mixes; thread counts that leave some nodes without
// threads; records homed on a random run of nodes (one hot node up to all
// of them). Seeds are fixed so failures replay deterministically.
class SystemFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemFuzz, EventEngineMatchesRunWithEveryLayerAttached) {
  Xoshiro256 rng(GetParam());
  SimConfig config;
  const std::uint32_t node_choices[] = {1, 2, 4, 8, 16};
  const CoalescerPolicy policies[] = {
      CoalescerPolicy::kRaw, CoalescerPolicy::kMac, CoalescerPolicy::kMshr,
      CoalescerPolicy::kWarp};
  config.nodes = node_choices[rng.below(5)];
  config.cores = 1u + static_cast<std::uint32_t>(rng.below(8));
  config.remote_hop_cycles =
      rng.below(2) == 0 ? 1u : 2u + static_cast<std::uint32_t>(rng.below(199));
  // Shallow router queues make cores stall and remote requests wait in
  // the retry buffer.
  config.queue_depth = 1u << rng.below(7);  // 1 .. 64
  config.policy = policies[rng.below(4)];
  for (std::uint32_t n = 0; n < config.nodes; ++n) {
    if (rng.below(2) == 0) continue;
    if (!config.node_policies.empty()) config.node_policies += ';';
    config.node_policies += std::to_string(n) + ":" +
                            std::string(to_string(policies[rng.below(4)]));
  }
  config.validate();

  const std::uint32_t threads =
      1u + static_cast<std::uint32_t>(rng.below(2 * config.nodes));
  const double locality = 0.25 * static_cast<double>(rng.below(5));
  const std::uint32_t homes =
      1u + static_cast<std::uint32_t>(rng.below(config.nodes));
  const std::uint32_t first_home =
      static_cast<std::uint32_t>(rng.below(config.nodes - homes + 1));
  const MemoryTrace trace =
      rehome(locality_trace(locality, threads,
                            60 + static_cast<std::uint32_t>(rng.below(140)),
                            GetParam() * 131 + 7),
             first_home, homes, config.hmc_capacity, GetParam());
  expect_system_engines_agree(
      config, trace,
      "seed " + std::to_string(GetParam()) + " (" +
          std::to_string(config.nodes) + " nodes, " +
          std::to_string(threads) + " threads, hop " +
          std::to_string(config.remote_hop_cycles) + ", queue depth " +
          std::to_string(config.queue_depth) + ", homes " +
          std::to_string(first_home) + "+" + std::to_string(homes) +
          ", policies '" + config.node_policies + "')");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemFuzz,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{21}));

// ------------------------------------------------------- unwind paths
/// A census row whose probe throws once the run reaches cycle 200: an
/// exception raised at the serial point, mid-run, with every telemetry
/// layer holding probes into the pipeline.
void add_throwing_probe(ActivityCensus& census) {
  census.add_component("throws_at_200", [](Cycle now) -> bool {
    if (now >= 200) throw std::runtime_error("probe");
    return false;
  });
}

TEST(EngineUnwind, DriverAbortsItsTelemetryRunsUnderEveryEngine) {
  SimConfig config;
  const MemoryTrace trace = locality_trace(0.5, 4, 200, 73);
  CycleSampler sampler(64);
  SnapshotStreamer snapshot(256);
  for (const Engine engine : {Engine::kSerial, Engine::kEvent}) {
    ActivityCensus census;
    add_throwing_probe(census);
    DriveOptions options;
    options.engine = engine;
    options.census = &census;
    options.sampler = &sampler;
    options.snapshot = &snapshot;
    EXPECT_THROW((void)run_policy(CoalescerPolicy::kMac, trace, config, 4,
                                  options),
                 std::runtime_error)
        << engine_name(engine);
  }
  // The aborted runs dropped their probes: nothing samples any more.
  const std::size_t rows = sampler.row_count();
  const std::string stream = snapshot.str();
  sampler.advance_to(1'000'000);
  snapshot.advance_to(1'000'000);
  EXPECT_EQ(sampler.row_count(), rows);
  EXPECT_EQ(snapshot.str(), stream);

  // The same sampler and streamer serve a clean run afterwards.
  DriveOptions clean;
  clean.sampler = &sampler;
  clean.snapshot = &snapshot;
  const DriverResult result =
      run_policy(CoalescerPolicy::kMac, trace, config, 4, clean);
  EXPECT_EQ(result.completions, trace.size());
  EXPECT_GT(sampler.row_count(), rows);
  const std::string records = std::to_string(trace.size());
  EXPECT_NE(snapshot.str().find("\"injected\":" + records +
                                ",\"completions\":" + records),
            std::string::npos);
}

TEST(EngineUnwind, SystemAbortsItsTelemetryRunsUnderEveryEngine) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = locality_trace(0.5, 8, 200, 79);
  for (const bool event : {false, true}) {
    System system(config);
    ActivityCensus census;
    CycleSampler sampler(64);
    SnapshotStreamer snapshot(256);
    LifecycleTracer sink;
    system.attach_census(&census);
    add_throwing_probe(census);
    system.attach_sampler(&sampler);
    system.attach_snapshot(&snapshot);
    system.attach_sink(&sink);
    system.attach_trace(trace);
    if (event) {
      EXPECT_THROW(system.run_event(), std::runtime_error);
    } else {
      EXPECT_THROW(system.run(), std::runtime_error);
    }
    const std::size_t rows = sampler.row_count();
    const std::string stream = snapshot.str();
    sampler.advance_to(1'000'000);
    snapshot.advance_to(1'000'000);
    EXPECT_EQ(sampler.row_count(), rows) << event;
    EXPECT_EQ(snapshot.str(), stream) << event;
  }
}

// --------------------------------------------------- randomized-config fuzz
// Random geometry / timing / feeder knobs, random trace shape: serial and
// event must agree bit-for-bit on all four paths every time. Seeds are
// fixed so failures replay deterministically.
class EquivalenceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceFuzz, RandomConfigsStayBitIdentical) {
  Xoshiro256 rng(GetParam());
  SimConfig config;
  const std::uint32_t vault_choices[] = {8, 16, 32, 64};
  const std::uint32_t link_choices[] = {2, 4, 8};
  config.vaults = vault_choices[rng.below(4)];
  config.hmc_links = link_choices[rng.below(3)];
  if (config.hmc_links > config.vaults) config.hmc_links = config.vaults;
  config.arq_entries = 4u << rng.below(5);       // 4 .. 64
  config.builder_min_bytes = 16u << rng.below(3);  // 16 / 32 / 64
  config.open_page = rng.below(2) == 0;
  config.warp_lanes = 2u << rng.below(4);  // 2 .. 16
  config.warp_window_cycles =
      1u + static_cast<std::uint32_t>(rng.below(12));  // 1 .. 12
  config.validate();

  const std::uint32_t threads = 1u + static_cast<std::uint32_t>(rng.below(8));
  const double locality = 0.25 * static_cast<double>(rng.below(5));
  const MemoryTrace trace = locality_trace(
      locality, threads, 120 + static_cast<std::uint32_t>(rng.below(120)),
      GetParam() * 977 + 3);

  DriveOptions serial;
  serial.engine = Engine::kSerial;
  serial.mode =
      rng.below(2) == 0 ? FeedMode::kStreaming : FeedMode::kClosedLoop;
  serial.tag_pool = serial.mode == FeedMode::kStreaming
                        ? static_cast<std::uint32_t>(rng.below(3)) * 8
                        : 0;  // 0 (full space), 8 or 16 outstanding tags
  DriveOptions event = serial;
  event.engine = Engine::kEvent;

  for (const char* path : {"mac", "raw", "mshr", "warp"}) {
    EXPECT_EQ(run_fingerprint(path, trace, config, threads, serial),
              run_fingerprint(path, trace, config, threads, event))
        << path << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull,
                                           21ull, 34ull, 55ull, 89ull));

// ------------------------------------------------------ --jobs fan-out
/// Four quick workloads through all four policies.
SuiteOptions small_suite(std::uint32_t jobs) {
  SuiteOptions options;
  options.threads = 4;
  options.scale = 0.05;
  options.run_mshr = true;
  options.run_warp = true;
  options.only = {"mg", "sg", "sp", "sort"};
  options.jobs = jobs;
  return options;
}

TEST(Jobs, SuiteResultsAreTheSameAtEveryJobsValue) {
  const auto csv = [](std::uint32_t jobs) {
    StatSet stats;
    const std::vector<WorkloadRun> runs = run_suite(small_suite(jobs));
    EXPECT_EQ(runs.size(), 4u);
    for (const WorkloadRun& run : runs) {
      for (const CoalescerPolicy policy :
           {CoalescerPolicy::kRaw, CoalescerPolicy::kMac,
            CoalescerPolicy::kMshr, CoalescerPolicy::kWarp}) {
        run.result(policy).collect(
            stats, run.name + "." + std::string(to_string(policy)));
      }
    }
    return stats.to_csv();
  };
  const std::string one = csv(1);
  EXPECT_NE(one.find("sort.warp.packets"), std::string::npos);
  EXPECT_EQ(one, csv(4));
  EXPECT_EQ(one, csv(0));  // hardware concurrency
}

TEST(Jobs, SuiteWithACensusAttachedRunsOneJobAtATime) {
  // Every run registers census rows and observes the shared census, so
  // run_suite must not run two of them at once.
  const auto census_json = [](std::uint32_t jobs) {
    ActivityCensus census;
    SuiteOptions options = small_suite(jobs);
    options.drive.census = &census;
    (void)run_suite(options);
    return census.to_json();
  };
  EXPECT_EQ(census_json(1), census_json(4));
}

TEST(Jobs, EachTaskRunsExactlyOnce) {
  std::vector<std::atomic<int>> runs(8);
  run_jobs(runs.size(), 3, [&runs](std::size_t i) { ++runs[i]; });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(Jobs, AThrowingTaskReachesTheCallerAfterTheOthersFinish) {
  for (const std::uint32_t jobs : {1u, 3u}) {
    std::atomic<int> finished{0};
    try {
      run_jobs(8, jobs, [&finished](std::size_t i) {
        if (i == 2) throw std::runtime_error("task 2");
        ++finished;
      });
      ADD_FAILURE() << "run_jobs swallowed the exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 2");
    }
    EXPECT_EQ(finished.load(), 7) << jobs << " jobs";
  }
}

/// The process's thread count from /proc (0 where it cannot be read).
std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

TEST(Jobs, StartsNoMoreThreadsThanTasks) {
  const std::size_t before = process_threads();
  ASSERT_NE(before, 0u);
  std::mutex mutex;
  std::size_t most = 0;
  run_jobs(2, 8, [&](std::size_t) {
    const std::size_t now = process_threads();
    const std::lock_guard<std::mutex> lock(mutex);
    most = std::max(most, now);
  });
  // The caller runs tasks too, so two tasks need one more thread at most.
  EXPECT_LE(most, before + 1);
}

}  // namespace
}  // namespace mac3d
