// Unit tests: the streaming / closed-loop drivers and the cross-path
// comparison metrics over identical traces.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "sim/driver.hpp"
#include "sim/metrics.hpp"
#include "sim/tag_allocator.hpp"
#include "workloads/all.hpp"

namespace mac3d {
namespace {

MemoryTrace shared_row_trace(std::uint32_t threads, std::uint32_t rows) {
  MemoryTrace trace(threads);
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      trace.instr(static_cast<ThreadId>(t), 2);
      trace.load(static_cast<ThreadId>(t),
                 static_cast<Address>(r) * 256 + (t % 16) * 16);
    }
  }
  return trace;
}

MemoryTrace random_trace(std::uint32_t threads, std::uint32_t per_thread) {
  MemoryTrace trace(threads);
  Xoshiro256 rng(123);
  for (std::uint32_t i = 0; i < per_thread; ++i) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      trace.instr(static_cast<ThreadId>(t), 2);
      trace.load(static_cast<ThreadId>(t), rng.below(1ull << 30) & ~0xFULL);
    }
  }
  return trace;
}

TEST(Driver, RawPathIssuesOnePacketPerRequest) {
  SimConfig config;
  const MemoryTrace trace = shared_row_trace(4, 50);
  const DriverResult raw = run_policy(CoalescerPolicy::kRaw, trace, config, 4);
  EXPECT_EQ(raw.raw_requests, 200u);
  EXPECT_EQ(raw.packets, 200u);
  EXPECT_EQ(raw.completions, 200u);
  EXPECT_DOUBLE_EQ(raw.coalescing_efficiency(), 0.0);
  EXPECT_NEAR(raw.bandwidth_efficiency(), 1.0 / 3.0, 1e-9);
}

TEST(Driver, MacPathCoalescesSharedRows) {
  SimConfig config;
  const MemoryTrace trace = shared_row_trace(8, 200);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 8);
  EXPECT_EQ(mac.raw_requests, 1600u);
  EXPECT_EQ(mac.completions, 1600u);
  EXPECT_LT(mac.packets, 1600u);
  EXPECT_GT(mac.coalescing_efficiency(), 0.4);
  EXPECT_GT(mac.avg_targets_per_entry, 1.5);
  EXPECT_GT(mac.bandwidth_efficiency(), 1.0 / 3.0);
}

TEST(Driver, RandomTraceBarelyCoalesces) {
  SimConfig config;
  const MemoryTrace trace = random_trace(8, 200);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 8);
  EXPECT_LT(mac.coalescing_efficiency(), 0.1);
  // Everything bypasses as single-FLIT requests.
  EXPECT_NEAR(mac.bandwidth_efficiency(), 1.0 / 3.0, 0.05);
}

TEST(Driver, MacNeverIncreasesPacketsOrConflicts) {
  SimConfig config;
  for (const Workload* workload :
       {sg_workload(), mg_workload(), gap_bfs_workload()}) {
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.05;
    params.config = config;
    const MemoryTrace trace = workload->trace(params);
    const DriverResult raw = run_policy(CoalescerPolicy::kRaw, trace, config,
                                        4);
    const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config,
                                        4);
    EXPECT_LE(mac.packets, raw.packets) << workload->name();
    EXPECT_LE(mac.bank_conflicts, raw.bank_conflicts) << workload->name();
    // Note: link *bytes* may grow — a sparse span pads unrequested FLITs
    // into the packet (the Sec. 4.2 trade-off) — but control overhead
    // always shrinks with the packet count.
    EXPECT_LE(mac.overhead_bytes, raw.overhead_bytes) << workload->name();
    EXPECT_EQ(mac.completions, raw.completions) << workload->name();
  }
}

TEST(Driver, MshrPathDispatchesFixedBlocks) {
  SimConfig config;
  const MemoryTrace trace = shared_row_trace(8, 100);
  const DriverResult mshr = run_policy(CoalescerPolicy::kMshr, trace, config,
                                       8);
  EXPECT_EQ(mshr.completions, 800u);
  EXPECT_GT(mshr.coalescing_efficiency(), 0.0);
  // All packets are 64 B.
  ASSERT_EQ(mshr.packets_by_size.size(), 1u);
  EXPECT_EQ(mshr.packets_by_size.begin()->first, 64u);
}

TEST(Driver, WarpPathCoalescesAdjacentLanes) {
  // Warp-adjacent accesses: lane t of each step touches consecutive
  // FLITs of one block, the canonical fully-coalescable SIMT pattern.
  SimConfig config;
  MemoryTrace trace(8);
  for (std::uint32_t step = 0; step < 200; ++step) {
    for (std::uint32_t t = 0; t < 8; ++t) {
      trace.instr(static_cast<ThreadId>(t), 2);
      trace.load(static_cast<ThreadId>(t),
                 static_cast<Address>(step) * 128 + t * 16);
    }
  }
  const DriverResult warp = run_policy(CoalescerPolicy::kWarp, trace, config,
                                       8);
  EXPECT_EQ(warp.raw_requests, 1600u);
  EXPECT_EQ(warp.completions, 1600u);
  // Eight same-block lanes per window merge into few iterations.
  EXPECT_LT(warp.packets, warp.raw_requests / 2);
  EXPECT_GT(warp.coalescing_efficiency(), 0.5);
}

TEST(Driver, WarpPathDivergedLanesBarelyCoalesce) {
  SimConfig config;
  const MemoryTrace trace = random_trace(8, 300);
  const DriverResult warp = run_policy(CoalescerPolicy::kWarp, trace, config,
                                       8);
  EXPECT_EQ(warp.completions, warp.raw_requests);
  // Random addresses diverge: nearly one packet per lane.
  EXPECT_GT(warp.packets, warp.raw_requests * 9 / 10);
}

TEST(Driver, RunPolicyDispatchesToTheMatchingPath) {
  SimConfig config;
  const MemoryTrace trace = shared_row_trace(8, 100);
  std::set<std::string> runs;
  for (const CoalescerPolicy policy :
       {CoalescerPolicy::kRaw, CoalescerPolicy::kMac, CoalescerPolicy::kMshr,
        CoalescerPolicy::kWarp}) {
    const DriverResult result = run_policy(policy, trace, config, 8);
    EXPECT_EQ(result.path, to_string(policy));
    EXPECT_EQ(result.completions, 800u) << result.path;
    StatSet stats;
    result.collect(stats, "path");
    runs.insert(stats.to_json());
  }
  EXPECT_EQ(runs.size(), 4u);  // four policies, four different runs
}

TEST(Driver, LaneGroupFeedCompletesEverythingOnEveryPath) {
  SimConfig config;
  config.warp_lanes = 4;
  const MemoryTrace trace = shared_row_trace(8, 60);
  DriveOptions options;
  options.mode = FeedMode::kLaneGroup;
  for (const CoalescerPolicy policy :
       {CoalescerPolicy::kRaw, CoalescerPolicy::kMac, CoalescerPolicy::kMshr,
        CoalescerPolicy::kWarp}) {
    const DriverResult result = run_policy(policy, trace, config, 8, options);
    EXPECT_EQ(result.raw_requests, 480u) << to_string(policy);
    EXPECT_EQ(result.completions, 480u) << to_string(policy);
    EXPECT_GT(result.makespan, 0u) << to_string(policy);
  }
}

TEST(Driver, LaneGroupFeedKeepsLanesInLockstep) {
  // In lockstep the warp policy sees all of a group's same-step requests
  // back-to-back, so the canonical SIMT pattern coalesces at least as
  // well as under free streaming.
  SimConfig config;
  MemoryTrace trace(8);
  for (std::uint32_t step = 0; step < 150; ++step) {
    for (std::uint32_t t = 0; t < 8; ++t) {
      trace.instr(static_cast<ThreadId>(t), 2);
      trace.load(static_cast<ThreadId>(t),
                 static_cast<Address>(step) * 128 + t * 16);
    }
  }
  DriveOptions lockstep;
  lockstep.mode = FeedMode::kLaneGroup;
  const DriverResult grouped = run_policy(CoalescerPolicy::kWarp, trace, config,
                                          8, lockstep);
  const DriverResult streamed = run_policy(CoalescerPolicy::kWarp, trace,
                                           config, 8);
  EXPECT_EQ(grouped.completions, grouped.raw_requests);
  EXPECT_GE(grouped.coalescing_efficiency(),
            streamed.coalescing_efficiency());
}

TEST(Driver, MacAdaptsPacketSizesBeyondTheMshrCap) {
  // Sec. 2.3: the MSHR baseline is capped at fixed 64 B packets; the MAC
  // adapts the transaction size up to the full row. (The whole-suite
  // comparison lives in bench/ablation_mshr_vs_mac.)
  SimConfig config;
  const MemoryTrace trace = shared_row_trace(16, 300);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 16);
  const DriverResult mshr = run_policy(CoalescerPolicy::kMshr, trace, config,
                                       16);
  std::uint64_t mac_large = 0;
  for (const auto& [size, count] : mac.packets_by_size) {
    if (size > 64) mac_large += count;
  }
  EXPECT_GT(mac_large, 0u);
  ASSERT_EQ(mshr.packets_by_size.size(), 1u);
  EXPECT_EQ(mshr.packets_by_size.begin()->first, 64u);
  EXPECT_EQ(mac.completions, mshr.completions);
}

TEST(Driver, ClosedLoopModeCompletesEverything) {
  SimConfig config;
  const MemoryTrace trace = shared_row_trace(4, 50);
  DriveOptions options;
  options.mode = FeedMode::kClosedLoop;
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 4,
                                      options);
  EXPECT_EQ(mac.completions, 200u);
  EXPECT_GT(mac.makespan, 0u);
}

TEST(Driver, SpeedupMetricsAreConsistent) {
  SimConfig config;
  const MemoryTrace trace = shared_row_trace(8, 300);
  const DriverResult raw = run_policy(CoalescerPolicy::kRaw, trace, config, 8);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 8);
  const double speedup = memory_speedup(raw, mac);
  EXPECT_GT(speedup, 0.0);
  EXPECT_LT(speedup, 1.0);
  EXPECT_GT(bank_conflict_reduction(raw, mac), 0u);
  EXPECT_GT(bandwidth_saving_bytes(raw, mac), 0u);
}

TEST(Driver, DeterministicAcrossRuns) {
  SimConfig config;
  const MemoryTrace trace = random_trace(4, 100);
  const DriverResult a = run_policy(CoalescerPolicy::kMac, trace, config, 4);
  const DriverResult b = run_policy(CoalescerPolicy::kMac, trace, config, 4);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.bank_conflicts, b.bank_conflicts);
  EXPECT_EQ(a.link_bytes, b.link_bytes);
}

TEST(Driver, EventEngineLandsOnEverySamplerBoundary) {
  // Each record arrives after a long compute gap: the event engine's
  // wakes lie far apart.
  MemoryTrace trace(2);
  for (std::uint32_t i = 0; i < 8; ++i) {
    for (std::uint32_t t = 0; t < 2; ++t) {
      trace.instr(static_cast<ThreadId>(t), 900);
      trace.load(static_cast<ThreadId>(t), (i * 2 + t) * Address{4096});
    }
  }
  // A probe row records every cycle the engine visits.
  ActivityCensus census;
  std::set<Cycle> visited;
  census.add_component("visits", [&visited](Cycle now) {
    visited.insert(now);
    return false;
  });
  CycleSampler sampler(64);
  DriveOptions options;
  options.engine = Engine::kEvent;
  options.census = &census;
  options.sampler = &sampler;
  const DriverResult result =
      run_policy(CoalescerPolicy::kMac, trace, SimConfig{}, 2, options);
  ASSERT_EQ(result.completions, trace.size());
  ASSERT_FALSE(visited.empty());
  const Cycle last = *visited.rbegin();
  EXPECT_LT(visited.size(), last / 2);
  for (Cycle boundary = 64; boundary <= last; boundary += 64) {
    EXPECT_EQ(visited.count(boundary), 1u) << "boundary " << boundary;
  }
}

TEST(Metrics, GeomeanAndMean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
  EXPECT_EQ(geomean({}), 0.0);
}

// ------------------------------------------- streaming-feeder tag pools

TEST(TagAllocator, FullSpaceHandsOutSequentialTagsLikeTheOldCursor) {
  TagAllocator tags(0);  // full 2 B tag space
  EXPECT_EQ(tags.available(), true);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(tags.peek(), static_cast<Tag>(i));
    EXPECT_EQ(tags.allocate(), static_cast<Tag>(i));
  }
  EXPECT_EQ(tags.outstanding(), 100u);
  EXPECT_EQ(tags.high_water(), 100u);
}

TEST(TagAllocator, ExhaustionBlocksUntilATagIsReleased) {
  TagAllocator tags(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(tags.available());
    (void)tags.allocate();
  }
  EXPECT_FALSE(tags.available());  // the feeder stalls this thread here
  tags.release(2);
  ASSERT_TRUE(tags.available());
  EXPECT_EQ(tags.peek(), static_cast<Tag>(2));  // recycled, FIFO
  EXPECT_EQ(tags.allocate(), static_cast<Tag>(2));
  EXPECT_FALSE(tags.available());
  EXPECT_EQ(tags.high_water(), 4u);
}

TEST(TagAllocator, RecycleOrderIsFifo) {
  TagAllocator tags(3);
  (void)tags.allocate();  // 0
  (void)tags.allocate();  // 1
  (void)tags.allocate();  // 2
  tags.release(1);
  tags.release(0);
  EXPECT_EQ(tags.allocate(), static_cast<Tag>(1));  // released first
  EXPECT_EQ(tags.allocate(), static_cast<Tag>(0));
  EXPECT_EQ(tags.allocated(), 5u);
  EXPECT_EQ(tags.released(), 2u);
  EXPECT_EQ(tags.outstanding(), 3u);
}

TEST(TagAllocator, PeekIsStableAcrossRejectedAttempts) {
  // The feeder peeks a tag, stamps the request, and only allocates on
  // accept — a path rejection must not burn the tag.
  TagAllocator tags(8);
  EXPECT_EQ(tags.peek(), static_cast<Tag>(0));
  EXPECT_EQ(tags.peek(), static_cast<Tag>(0));
  EXPECT_EQ(tags.allocate(), static_cast<Tag>(0));
  EXPECT_EQ(tags.peek(), static_cast<Tag>(1));
}

TEST(TagPool, TinyPoolStillCompletesEveryRequest) {
  SimConfig config;
  const MemoryTrace trace = random_trace(4, 300);
  DriveOptions options;
  options.tag_pool = 2;  // two outstanding requests per thread
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 4,
                                      options);
  const DriverResult raw = run_policy(CoalescerPolicy::kRaw, trace, config, 4,
                                      options);
  EXPECT_EQ(mac.completions, trace.size());
  EXPECT_EQ(raw.completions, trace.size());
}

TEST(TagPool, SmallerPoolsNeverFinishEarlier) {
  SimConfig config;
  const MemoryTrace trace = random_trace(4, 300);
  Cycle previous = 0;
  for (const std::uint32_t pool : {0u, 16u, 4u, 1u}) {  // descending depth
    DriveOptions options;
    options.tag_pool = pool;
    const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 4,
                                        options);
    EXPECT_EQ(mac.completions, trace.size()) << "pool " << pool;
    EXPECT_GE(mac.makespan, previous) << "pool " << pool;
    previous = mac.makespan;
  }
}

TEST(TagPool, FullSpacePoolMatchesHistoricalDefaultBitForBit) {
  // tag_pool = 0 must reproduce the pre-allocator behavior (sequential
  // tags, stall only when a tag is still in flight 2^16 requests later).
  SimConfig config;
  const MemoryTrace trace = random_trace(8, 200);
  DriveOptions defaults;
  DriveOptions full;
  full.tag_pool = 0;
  const DriverResult a = run_policy(CoalescerPolicy::kMac, trace, config, 8,
                                    defaults);
  const DriverResult b = run_policy(CoalescerPolicy::kMac, trace, config, 8,
                                    full);
  StatSet sa;
  StatSet sb;
  a.collect(sa, "mac");
  b.collect(sb, "mac");
  EXPECT_EQ(sa.to_json(), sb.to_json());
}

}  // namespace
}  // namespace mac3d
