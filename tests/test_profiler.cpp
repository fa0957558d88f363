// Self-profiling subsystem (docs/OBSERVABILITY.md §profiler):
//  * ActivityCensus accounting on hand-built activity patterns — jumped
//    cycles book as idle for probe rows, observe() is idempotent per
//    cycle, threshold rows count jumped spans through their slots, a
//    shared census counts a later run only past the observed cycles,
//    probe rows run once per visited cycle, a work slot row is active
//    only at the cycles its unit worked, seal() keeps counts, and the
//    metrics export carries <name>.{active,idle}_cycles;
//  * BusyUntil against a brute-force reference;
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

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
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
  census.observe(9);  // forward jump: 4..8 book as idle for probe rows

  EXPECT_EQ(census.observed_cycles(), 10u);
  const std::vector<ActivityCensus::Row> rows = census.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "even");
  EXPECT_EQ(rows[0].active_cycles, 2u);  // probed active at 0 and 2 only
  EXPECT_EQ(rows[0].idle_cycles, 8u);
  EXPECT_EQ(rows[1].active_cycles, 0u);
  EXPECT_EQ(rows[1].idle_cycles, 10u);
  EXPECT_DOUBLE_EQ(census.dead_time_fraction(), 18.0 / 20.0);
}

TEST(ActivityCensus, ThresholdRowsCountJumpedSpansExactly) {
  ActivityCensus census;
  // Threshold row, like a bank busy-until: busy from the raise's cycle.
  BusyUntil bank;
  census.add_threshold("bank", &bank);
  // Probe row: jumped-over cycles book as idle.
  census.add_component("idle_unit", [](Cycle) { return false; });

  bank.raise(0, 7);    // the tick at 0 keeps the bank busy through 6
  census.observe(0);   // bank active, idle_unit idle
  bank.raise(10, 12);  // the landing tick raises the slot again
  census.observe(10);  // jumps over 1..9: bank busy 1..6, idle 7..9

  EXPECT_EQ(census.observed_cycles(), 11u);
  std::vector<ActivityCensus::Row> rows = census.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].active_cycles, 8u);  // 0, jumped cycles 1..6, and 10
  EXPECT_EQ(rows[0].idle_cycles, 3u);    // 7..9
  EXPECT_EQ(rows[1].active_cycles, 0u);
  EXPECT_EQ(rows[1].idle_cycles, 11u);

  // A cycle before the slot's end is busy, visited or not.
  census.observe(11);  // 11 < 12
  rows = census.rows();
  EXPECT_EQ(rows[0].active_cycles, 9u);
  EXPECT_EQ(census.observed_cycles(), 12u);
}

TEST(ActivityCensus, ThresholdRowEdgeCases) {
  ActivityCensus census;
  BusyUntil unit;
  census.add_threshold("unit", &unit);
  BusyUntil feeder;  // a unit's work slot
  census.add_threshold("feeder", &feeder);

  unit.raise(0, 3);
  feeder.work(0);
  census.observe(0);
  census.observe(0);  // already observed: nothing changes
  EXPECT_EQ(census.observed_cycles(), 1u);

  census.observe(4);  // jumps over 1..3: unit busy 1..2, idle 3..4
  EXPECT_EQ(census.observed_cycles(), 5u);
  std::vector<ActivityCensus::Row> rows = census.rows();
  EXPECT_EQ(rows[0].active_cycles, 3u);  // 0, 1, 2
  EXPECT_EQ(rows[0].idle_cycles, 2u);
  // A work slot never counts across a jump: a unit works only at the
  // cycles it is ticked.
  EXPECT_EQ(rows[1].active_cycles, 1u);  // 0
  EXPECT_EQ(rows[1].idle_cycles, 4u);

  // A raise at or below the slot's end, or one ending where it starts,
  // counts nothing.
  unit.raise(7, 2);
  unit.raise(7, 7);
  census.observe(7);
  rows = census.rows();
  EXPECT_EQ(rows[0].active_cycles, 3u);
  EXPECT_EQ(rows[0].idle_cycles, 5u);

  // A row counts from its first observed cycle: a unit busy since cycle 0
  // that a fresh census first observes at 3 counts nothing before 3.
  ActivityCensus fresh;
  fresh.add_component("unit", [](Cycle) { return true; });
  BusyUntil bank;
  bank.raise(0, 5);
  fresh.add_threshold("bank", &bank);
  fresh.observe(3);  // 0..2 idle for every row
  EXPECT_EQ(fresh.observed_cycles(), 4u);
  rows = fresh.rows();
  EXPECT_EQ(rows[0].active_cycles, 1u);  // probed at 3 only
  EXPECT_EQ(rows[0].idle_cycles, 3u);
  EXPECT_EQ(rows[1].active_cycles, 1u);  // 3
  EXPECT_EQ(rows[1].idle_cycles, 3u);

  // seal() freezes the counts and drops the slot pointer with the probes;
  // a second seal changes nothing.
  fresh.seal();
  bank.raise(4, 9);
  fresh.observe(4);
  fresh.seal();
  rows = fresh.rows();
  EXPECT_EQ(rows[1].active_cycles, 1u);
  EXPECT_EQ(rows[1].idle_cycles, 4u);
}

// A census shared across runs counts a later run only past the cycles an
// earlier run observed: the replayed cycles count nothing, and the slot's
// busy span across the first new cycle counts from there, jumped or not.
TEST(ActivityCensus, SharedCensusCountsALaterRunPastObservedCycles) {
  ActivityCensus census;
  {
    BusyUntil first;
    census.add_threshold("run1", &first);
    first.work(0);
    for (Cycle now = 0; now < 5; ++now) census.observe(now);
    census.seal();
  }
  BusyUntil second;
  census.add_threshold("run2", &second);
  second.raise(0, 2);
  census.observe(0);  // replays an observed cycle: counts nothing
  second.raise(3, 7);
  census.observe(3);
  census.observe(6);  // jumps over 5: busy, like 6

  const std::vector<ActivityCensus::Row> rows = census.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].active_cycles, 1u);
  EXPECT_EQ(rows[0].idle_cycles, 6u);
  EXPECT_EQ(rows[1].active_cycles, 2u);  // 5 and 6
  EXPECT_EQ(rows[1].idle_cycles, 0u);
  EXPECT_EQ(census.observed_cycles(), 7u);
}

// perf/src/workloads.cpp counts the engine's visited cycles with a probe
// that only counts its calls, so a probe row must run exactly once per
// cycle observe() advances the clock to, and never for a jumped cycle.
TEST(ActivityCensus, ProbeRowsRunOncePerVisitedCycle) {
  ActivityCensus census;
  std::uint64_t calls = 0;
  census.add_component("visits", [&calls](Cycle) {
    ++calls;
    return false;
  });
  BusyUntil bank;
  census.add_threshold("bank", &bank);

  bank.raise(0, 100);
  census.observe(0);
  census.observe(0);   // already accounted: no call
  census.observe(5);   // jumps over 1..4: no call
  census.observe(9);   // jumps over 6..8, one call for 9
  census.observe(20);  // jumps over 10..19
  census.observe(21);

  EXPECT_EQ(calls, 5u);  // cycles 0, 5, 9, 20, 21
  EXPECT_EQ(census.observed_cycles(), 22u);
  // The slot counts every cycle below 100, visited or jumped over.
  const std::vector<ActivityCensus::Row> rows = census.rows();
  EXPECT_EQ(rows[1].active_cycles, 22u);
  EXPECT_EQ(rows[1].idle_cycles, 0u);
}

// Every simulated unit (feeder, router, path units, fabric) marks its
// work slot when it works at `now`: a threshold row active at exactly the
// cycles it worked.
TEST(ActivityCensus, WorkSlotRowIsActiveOnlyWhereItsUnitWorked) {
  ActivityCensus census;
  BusyUntil feeder;  // never worked
  census.add_threshold("node0.feeder", &feeder);
  feeder.work(0);
  census.observe(0);
  census.observe(1);  // no work at 1: idle
  feeder.work(2);
  census.observe(2);
  census.observe(6);  // jumps over 3..5: the slot ended at 3

  const std::vector<ActivityCensus::Row> rows = census.rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].active_cycles, 2u);  // 0 and 2
  EXPECT_EQ(rows[0].idle_cycles, 5u);    // 1, 3, 4, 5, 6
  EXPECT_EQ(census.observed_cycles(), 7u);
}

// BusyUntil against a brute-force reference that applies each cycle's
// raises and books every cycle `c < until`: work slots, arbitrary
// thresholds, raises at or below the slot's end and several raises per
// cycle, read at every end from the last raise's cycle on.
TEST(BusyUntil, CountsMatchABruteForceReference) {
  constexpr Cycle kHorizon = 160;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256 rng(seed);
    BusyUntil slot;
    Cycle until = 0;
    std::uint64_t busy_before_now = 0;  // reference count over [0, now)
    for (Cycle now = 0; now < kHorizon; ++now) {
      const std::uint64_t raises = rng.below(3) == 0 ? rng.below(4) : 0;
      for (std::uint64_t i = 0; i < raises; ++i) {
        Cycle to = 0;
        switch (rng.below(3)) {
          case 0:
            to = now + 1;
            slot.work(now);
            break;
          case 1:
            to = now + rng.below(24);
            slot.raise(now, to);
            break;
          default:
            to = rng.below(until + 1);  // at or below the slot's end
            slot.raise(now, to);
            break;
        }
        until = std::max(until, to);
      }
      ASSERT_EQ(slot.until, until) << "seed " << seed << " cycle " << now;
      // Cycles from `now` on stay as this cycle's raises left them.
      std::uint64_t expected = busy_before_now;
      for (Cycle end = now; end <= kHorizon + 32; ++end) {
        ASSERT_EQ(slot.active_before(end), expected)
            << "seed " << seed << " cycle " << now << " end " << end;
        expected += end < until ? 1 : 0;
      }
      busy_before_now += now < until ? 1 : 0;
    }
  }
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
