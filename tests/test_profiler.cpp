// Self-profiling subsystem (docs/OBSERVABILITY.md §profiler):
//  * ActivityCensus accounting on hand-built activity patterns — gap
//    cycles book as idle, observe() is idempotent per cycle, threshold
//    rows credit skipped spans exactly, probe rows run once per visited
//    cycle, a work slot (`now + 1`) row is active only at the cycles its
//    unit worked, seal() keeps counts, and the metrics export carries
//    <name>.{active,idle}_cycles;
//  * HostProfiler laps: one clock read per phase boundary, none without a
//    profiler, and a profiled run's phases fit inside its wall time;
//  * LatencyDecomposer residency histograms against analytic values,
//    the critical-stage attribution (argmax residency, earliest stage
//    wins ties) and the transparent downstream tee;
//  * empty-stream / zero-request edge cases;
//  * census exports are byte-identical between System::run and
//    System::run_event;
//  * attaching census/decomposer/profiler never perturbs simulated
//    results.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "arch/system.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "obs/latency.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "sim/driver.hpp"
#include "trace/trace.hpp"

namespace mac3d {
namespace {

/// Small deterministic trace: strided loads across `threads` threads.
MemoryTrace small_trace(std::uint32_t threads, std::uint32_t per_thread) {
  MemoryTrace trace(threads);
  for (std::uint32_t i = 0; i < per_thread; ++i) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      trace.instr(static_cast<ThreadId>(t), 2);
      trace.load(static_cast<ThreadId>(t),
                 (static_cast<Address>(i) * threads + t) * 64);
    }
  }
  return trace;
}

// ----------------------------------------------------------- ActivityCensus

TEST(ActivityCensus, CountsActiveAndIdleWithGapCycles) {
  ActivityCensus census;
  census.add_component("even", [](Cycle now) { return now % 2 == 0; });
  census.add_component("never", [](Cycle) { return false; });
  for (Cycle now = 0; now < 4; ++now) census.observe(now);
  census.observe(3);  // idempotent: the cycle is already accounted
  census.observe(9);  // forward jump: 4..8 book as idle for everyone

  EXPECT_EQ(census.observed_cycles(), 10u);
  const auto& rows = census.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "even");
  EXPECT_EQ(rows[0].active_cycles, 2u);  // probed active at 0 and 2 only
  EXPECT_EQ(rows[0].idle_cycles, 8u);
  EXPECT_EQ(rows[1].active_cycles, 0u);
  EXPECT_EQ(rows[1].idle_cycles, 10u);
  EXPECT_DOUBLE_EQ(census.dead_time_fraction(), 18.0 / 20.0);
}

TEST(ActivityCensus, SkipToCreditsThresholdRowsExactly) {
  ActivityCensus census;
  // Threshold row, like a bank busy-until: active while now < busy_until.
  Cycle busy_until = 7;
  census.add_threshold("bank", &busy_until);
  // Probe row: skipped spans book as idle.
  census.add_component("idle_unit", [](Cycle) { return false; });

  census.observe(0);   // both evaluated at 0: bank active, idle_unit idle
  census.skip_to(10);  // span 1..9: bank active 1..6 (6), idle 7..9 (3)
  busy_until = 12;     // the landing tick raises the threshold
  census.observe(10);  // landing cycle evaluated normally: active again

  EXPECT_EQ(census.observed_cycles(), 11u);
  const auto& rows = census.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].active_cycles, 8u);  // 0, span cycles 1..6, and 10
  EXPECT_EQ(rows[0].idle_cycles, 3u);    // 7..9
  EXPECT_EQ(rows[1].active_cycles, 0u);
  EXPECT_EQ(rows[1].idle_cycles, 11u);

  // A span that ends before the threshold is active throughout.
  census.skip_to(12);  // span 11 only: 11 < 12
  EXPECT_EQ(rows[0].active_cycles, 9u);
  EXPECT_EQ(census.observed_cycles(), 12u);
}

TEST(ActivityCensus, SkipToEdgeCases) {
  ActivityCensus census;
  Cycle busy_until = 3;
  census.add_threshold("unit", &busy_until);
  Cycle work_until = 1;  // a unit's work slot: it worked at cycle 0
  census.add_threshold("feeder", &work_until);

  census.observe(0);
  census.skip_to(1);  // next == first unobserved cycle: a no-op
  EXPECT_EQ(census.observed_cycles(), 1u);

  census.skip_to(5);  // span 1..4: active 1..2, idle 3..4
  EXPECT_EQ(census.observed_cycles(), 5u);
  const auto& rows = census.rows();
  EXPECT_EQ(rows[0].active_cycles, 3u);  // 0, 1, 2
  EXPECT_EQ(rows[0].idle_cycles, 2u);
  // A work slot is never credited across a span: the span starts after
  // the last visited cycle, the latest one a unit can have worked at.
  EXPECT_EQ(rows[1].active_cycles, 1u);  // 0
  EXPECT_EQ(rows[1].idle_cycles, 4u);

  // A threshold at or below the span's first cycle credits nothing.
  census.skip_to(8);  // span 5..7, busy_until 3
  EXPECT_EQ(rows[0].active_cycles, 3u);
  EXPECT_EQ(rows[0].idle_cycles, 5u);

  // skip_to on a fresh census starts the clock at cycle 0.
  ActivityCensus fresh;
  fresh.add_component("unit", [](Cycle) { return true; });
  Cycle fresh_until = 2;
  fresh.add_threshold("bank", &fresh_until);
  fresh.skip_to(3);  // books 0..2
  EXPECT_EQ(fresh.observed_cycles(), 3u);
  EXPECT_EQ(fresh.rows()[0].idle_cycles, 3u);    // probe rows: idle
  EXPECT_EQ(fresh.rows()[1].active_cycles, 2u);  // 0 and 1

  // seal() drops the threshold pointer along with the probes.
  fresh.seal();
  fresh.observe(3);
  EXPECT_EQ(fresh.rows()[1].active_cycles, 2u);
  EXPECT_EQ(fresh.rows()[1].idle_cycles, 2u);
}

// perf/src/workloads.cpp counts the engine's visited cycles with a probe
// that only counts its calls, so a probe row must run exactly once per
// visited cycle under observe() and never under skip_to().
TEST(ActivityCensus, ProbeRowsRunOncePerVisitedCycle) {
  ActivityCensus census;
  std::uint64_t calls = 0;
  census.add_component("visits", [&calls](Cycle) {
    ++calls;
    return false;
  });
  Cycle busy_until = 100;
  census.add_threshold("bank", &busy_until);

  census.observe(0);
  census.observe(0);   // already accounted: no call
  census.skip_to(5);   // span 1..4: no call
  census.observe(5);
  census.observe(9);   // forward jump books 6..8 idle, one call for 9
  census.skip_to(20);  // span 10..19: no call
  census.observe(20);
  census.observe(21);

  EXPECT_EQ(calls, 5u);  // cycles 0, 5, 9, 20, 21
  EXPECT_EQ(census.observed_cycles(), 22u);
  // The gap 6..8 books idle even for the threshold row (observe's jump
  // is "nothing happened"); the skip_to spans credit it up to 100.
  EXPECT_EQ(census.rows()[1].active_cycles, 19u);
  EXPECT_EQ(census.rows()[1].idle_cycles, 3u);
}

// Every simulated unit (feeder, router, path units, fabric) stores
// `now + 1` into its slot when it works at `now`: a threshold row active
// at exactly the cycles it worked.
TEST(ActivityCensus, WorkSlotRowIsActiveOnlyWhereItsUnitWorked) {
  ActivityCensus census;
  Cycle work_until = 0;  // never worked
  census.add_threshold("node0.feeder", &work_until);
  work_until = 0 + 1;  // works at 0
  census.observe(0);
  census.observe(1);  // no work at 1: idle
  work_until = 2 + 1;  // works at 2
  census.observe(2);
  census.skip_to(6);  // span 3..5: the slot reads 3, nothing to credit
  census.observe(6);

  const auto& rows = census.rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].active_cycles, 2u);  // 0 and 2
  EXPECT_EQ(rows[0].idle_cycles, 5u);    // 1, 3, 4, 5, 6
  EXPECT_EQ(census.observed_cycles(), 7u);
}

TEST(ActivityCensus, SealKeepsCountsAndExportsMetrics) {
  ActivityCensus census;
  {
    // The probed component dies before the export: seal() first.
    const bool alive = true;
    census.add_component("node0.mac", [&alive](Cycle) { return alive; });
    census.observe(0);
    census.observe(1);
    census.seal();
  }
  ASSERT_EQ(census.rows().size(), 1u);
  EXPECT_EQ(census.rows()[0].active_cycles, 2u);

  StatSet metrics;
  census.export_metrics(metrics);
  EXPECT_EQ(metrics.get("node0.mac.active_cycles"), 2.0);
  EXPECT_TRUE(metrics.contains("node0.mac.idle_cycles"));

  // The table and JSON renderings carry the same counts.
  EXPECT_NE(census.to_table().find("node0.mac"), std::string::npos);
  EXPECT_NE(census.to_json().find("\"active_cycles\": 2"), std::string::npos);
}

// -------------------------------------------------------- LatencyDecomposer

TEST(LatencyDecomposer, ResidencyMatchesAnalyticDeltas) {
  LatencyDecomposer decomposer;
  // Three requests: queue_insert -> bank_access after d cycles ->
  // core_complete 5 cycles later. Residency[queue_insert] must hold
  // exactly {10, 20, 40}; residency[bank_access] exactly {5, 5, 5}.
  Tag tag = 0;
  for (const Cycle d : {10u, 20u, 40u}) {
    decomposer.on_stage(Stage::kQueueInsert, 0, tag, 100);
    decomposer.on_stage(Stage::kBankAccess, 0, tag, 100 + d);
    decomposer.on_stage(Stage::kCoreComplete, 0, tag, 100 + d + 5);
    ++tag;
  }

  EXPECT_EQ(decomposer.completed_requests(), 3u);
  EXPECT_EQ(decomposer.open_requests(), 0u);
  const Histogram& queue = decomposer.stage_residency(Stage::kQueueInsert);
  ASSERT_EQ(queue.count(), 3u);
  EXPECT_EQ(queue.quantile(0.0), 10u);  // exact min
  EXPECT_EQ(queue.quantile(1.0), 40u);  // exact max
  EXPECT_GE(queue.quantile(0.5), 10u);
  EXPECT_LE(queue.quantile(0.5), 40u);
  const Histogram& bank = decomposer.stage_residency(Stage::kBankAccess);
  ASSERT_EQ(bank.count(), 3u);
  EXPECT_EQ(bank.quantile(0.0), 5u);
  EXPECT_EQ(bank.quantile(1.0), 5u);
  // The terminal stage accrues no residency.
  EXPECT_EQ(decomposer.stage_residency(Stage::kCoreComplete).count(), 0u);

  // Critical attribution: queue_insert (>= 10 cycles) dominates every
  // request over bank_access (5 cycles).
  EXPECT_EQ(decomposer.critical_count(Stage::kQueueInsert), 3u);
  EXPECT_EQ(decomposer.critical_count(Stage::kBankAccess), 0u);
}

TEST(LatencyDecomposer, CriticalTieGoesToTheEarliestStage) {
  LatencyDecomposer decomposer;
  decomposer.on_stage(Stage::kQueueInsert, 1, 7, 0);
  decomposer.on_stage(Stage::kBankAccess, 1, 7, 8);    // residency 8
  decomposer.on_stage(Stage::kCoreComplete, 1, 7, 16);  // residency 8
  EXPECT_EQ(decomposer.critical_count(Stage::kQueueInsert), 1u);
  EXPECT_EQ(decomposer.critical_count(Stage::kBankAccess), 0u);
}

TEST(LatencyDecomposer, ForwardsEveryEventDownstream) {
  struct CountingSink final : EventSink {
    void on_stage(Stage, ThreadId, Tag, Cycle) override { ++stages; }
    void on_merge(ThreadId, Tag, ThreadId, Tag, Cycle) override { ++merges; }
    void on_hop(Hop, ThreadId, Tag, NodeId, NodeId, Cycle) override {
      ++hops;
    }
    int stages = 0;
    int merges = 0;
    int hops = 0;
  } downstream;
  LatencyDecomposer decomposer(&downstream);
  decomposer.on_stage(Stage::kCoreIssue, 0, 1, 10);
  decomposer.on_merge(0, 1, 0, 2, 11);
  decomposer.on_hop(Hop::kRequestSend, 0, 1, 0, 1, 12);
  EXPECT_EQ(downstream.stages, 1);
  EXPECT_EQ(downstream.merges, 1);
  EXPECT_EQ(downstream.hops, 1);
}

TEST(LatencyDecomposer, EmptyStreamAndZeroRequestEdgeCases) {
  LatencyDecomposer decomposer;
  EXPECT_EQ(decomposer.completed_requests(), 0u);
  EXPECT_EQ(decomposer.open_requests(), 0u);
  EXPECT_NE(decomposer.to_json().find("\"requests\""), std::string::npos);
  EXPECT_FALSE(decomposer.to_table().empty());

  // A request that never completes stays open and books no residency.
  decomposer.on_stage(Stage::kQueueInsert, 3, 9, 50);
  EXPECT_EQ(decomposer.open_requests(), 1u);
  EXPECT_EQ(decomposer.completed_requests(), 0u);
  EXPECT_EQ(decomposer.stage_residency(Stage::kQueueInsert).count(), 0u);

  ActivityCensus census;
  EXPECT_EQ(census.observed_cycles(), 0u);
  EXPECT_DOUBLE_EQ(census.dead_time_fraction(), 0.0);
  EXPECT_FALSE(census.to_table().empty());
}

// ------------------------------------------------------------- HostProfiler

/// Fake host clock: every read advances one second and is counted.
std::uint64_t g_clock_reads = 0;
double counting_clock() { return static_cast<double>(++g_clock_reads); }

TEST(HostProfiler, LapsAttributeTimeSincePreviousLap) {
  g_clock_reads = 0;
  HostProfiler profiler(counting_clock);
  profiler.start_laps();              // read 1
  profiler.lap(HostPhase::kTick);     // read 2: 1 s to tick
  profiler.lap(HostPhase::kSampler);  // read 3: 1 s to the sampler
  profiler.lap(HostPhase::kTick);     // read 4: 1 s more to tick
  profiler.lap(HostPhase::kSampler);  // read 5
  EXPECT_EQ(g_clock_reads, 5u);       // one read per phase boundary
  EXPECT_DOUBLE_EQ(profiler.phase_seconds(HostPhase::kTick), 2.0);
  EXPECT_DOUBLE_EQ(profiler.phase_seconds(HostPhase::kTelemetry), 0.0);
  EXPECT_DOUBLE_EQ(profiler.phase_seconds(HostPhase::kSampler), 2.0);
  // The host section holds the phases and nothing else.
  EXPECT_EQ(profiler.to_json(),
            "{\"phase_seconds\": {\"tick\": 2, \"telemetry\": 0, "
            "\"sampler\": 2}}");

  // The run-loop helpers forward to an attached profiler ...
  lap(&profiler, HostPhase::kTelemetry);
  EXPECT_EQ(g_clock_reads, 6u);
  EXPECT_DOUBLE_EQ(profiler.phase_seconds(HostPhase::kTelemetry), 1.0);
  // ... and a null profiler reads no clock at all.
  HostProfiler* none = nullptr;
  start_laps(none);
  lap(none, HostPhase::kTick);
  EXPECT_EQ(g_clock_reads, 6u);
}

TEST(HostProfiler, ProfiledSystemRunPhasesPartitionItsWallTime) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = small_trace(4, 100);
  System system(config);
  system.attach_trace(trace);
  ActivityCensus census;
  CycleSampler sampler(64);
  HostProfiler profiler;
  system.attach_census(&census);
  system.attach_sampler(&sampler);
  system.attach_profiler(&profiler);

  const double start = host_now_seconds();
  const SystemRunSummary summary = system.run();
  const double wall = host_now_seconds() - start;
  census.seal();
  EXPECT_TRUE(summary.completed);

  double total = 0.0;
  for (std::size_t i = 0; i < kHostPhaseCount; ++i) {
    const double seconds = profiler.phase_seconds(static_cast<HostPhase>(i));
    EXPECT_GE(seconds, 0.0);
    total += seconds;
  }
  EXPECT_GT(total, 0.0);
  EXPECT_LE(total, wall);
  EXPECT_GT(profiler.phase_seconds(HostPhase::kTick), 0.0);
  EXPECT_GT(profiler.phase_seconds(HostPhase::kTelemetry), 0.0);
}

// -------------------------------------------- engine equivalence & inertness

TEST(ProfilerEquivalence, CensusExportsAreByteIdenticalAcrossEngines) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = small_trace(4, 100);

  const auto census_json = [&](bool event) {
    System system(config);
    system.attach_trace(trace);
    ActivityCensus census;
    system.attach_census(&census);
    const SystemRunSummary summary = event ? system.run_event() : system.run();
    EXPECT_TRUE(summary.completed);
    census.seal();
    return census.to_json();
  };
  EXPECT_EQ(census_json(false), census_json(true));
}

TEST(ProfilerPerturbation, ProfiledRunsMatchUnprofiledRuns) {
  SimConfig config;
  const MemoryTrace trace = small_trace(4, 200);
  const DriveOptions plain;
  const DriverResult baseline = run_policy(CoalescerPolicy::kMac, trace, config,
                                           4, plain);

  ActivityCensus census;
  HostProfiler profiler;
  LatencyDecomposer decomposer;
  DriveOptions profiled;
  profiled.sink = &decomposer;
  profiled.census = &census;
  profiled.profiler = &profiler;
  const DriverResult result = run_policy(CoalescerPolicy::kMac, trace, config,
                                         4, profiled);

  StatSet expected;
  StatSet actual;
  baseline.collect(expected, "mac");
  result.collect(actual, "mac");
  EXPECT_EQ(expected.to_json(), actual.to_json());
  EXPECT_GT(census.observed_cycles(), 0u);
  EXPECT_GT(decomposer.completed_requests(), 0u);
}

}  // namespace
}  // namespace mac3d
