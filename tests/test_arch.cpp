// Unit tests: the node architecture — SPM, request router, core model,
// interconnect, node and multi-node system.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "arch/core_model.hpp"
#include "arch/interconnect.hpp"
#include "arch/request_router.hpp"
#include "arch/spm.hpp"
#include "arch/system.hpp"
#include "common/stats.hpp"
#include "obs/profiler.hpp"

namespace mac3d {
namespace {

// -------------------------------------------------------------------- SPM
TEST(Spm, WindowsAreDisjointPerCore) {
  SimConfig config;
  Spm a(config, 0, 0);
  Spm b(config, 0, 1);
  Spm c(config, 1, 0);
  EXPECT_EQ(a.size(), 1u << 20);
  EXPECT_FALSE(a.contains(b.base()));
  EXPECT_FALSE(b.contains(c.base()));
  EXPECT_TRUE(a.contains(a.base() + 100));
  EXPECT_FALSE(a.contains(a.base() + a.size()));
}

TEST(Spm, SpmAddressesAreAboveAnyCubeAddress) {
  SimConfig config;
  Spm spm(config, 0, 0);
  EXPECT_GE(spm.base(), Address{1} << 48);
}

TEST(Spm, LatencyMatchesTable1) {
  SimConfig config;
  Spm spm(config, 0, 0);
  // 1 ns at 3.3 GHz ~ 3 cycles.
  EXPECT_EQ(spm.latency(), 3u);
  EXPECT_EQ(spm.access(10, false), 13u);
  EXPECT_EQ(spm.accesses(), 1u);
}

// --------------------------------------------------------------- router
TEST(RequestRouter, ClassifiesLocalAndRemote) {
  SimConfig config;
  AddressMap map(config);
  RequestRouter router(config, map, /*node=*/0);
  RawRequest local;
  local.addr = 0x1000;
  RawRequest remote;
  remote.addr = (8ull << 30) + 0x1000;  // node 1
  ASSERT_TRUE(router.route_local(local));
  ASSERT_TRUE(router.route_local(remote));
  EXPECT_EQ(router.local_queue().size(), 1u);
  EXPECT_EQ(router.global_queue().size(), 1u);
  EXPECT_EQ(router.remote_out(), 1u);
}

TEST(RequestRouter, FencesStayLocal) {
  SimConfig config;
  AddressMap map(config);
  RequestRouter router(config, map, 0);
  RawRequest fence;
  fence.op = MemOp::kFence;
  ASSERT_TRUE(router.route_local(fence));
  EXPECT_EQ(router.local_queue().size(), 1u);
}

TEST(RequestRouter, RemoteQueueAndRoundRobin) {
  SimConfig config;
  AddressMap map(config);
  RequestRouter router(config, map, 0);
  RawRequest a;
  a.addr = 0x100;
  a.tid = 1;
  RawRequest b;
  b.addr = 0x200;
  b.tid = 2;
  ASSERT_TRUE(router.route_local(a));
  ASSERT_TRUE(router.route_remote(b));
  EXPECT_TRUE(router.has_path_request());
  const ThreadId first = router.pop_path_request().tid;
  const ThreadId second = router.pop_path_request().tid;
  EXPECT_NE(first, second);
  EXPECT_FALSE(router.has_path_request());
}

TEST(RequestRouter, BackPressureWhenFull) {
  SimConfig config;
  config.queue_depth = 2;
  AddressMap map(config);
  RequestRouter router(config, map, 0);
  RawRequest request;
  request.addr = 0x100;
  ASSERT_TRUE(router.route_local(request));
  ASSERT_TRUE(router.route_local(request));
  EXPECT_FALSE(router.route_local(request));
}

// ----------------------------------------------------------- interconnect
TEST(Interconnect, DeliversAfterHopLatency) {
  SimConfig config;
  Interconnect fabric(config, 2);
  RawRequest request;
  request.addr = 0x42;
  fabric.send_request(request, 1, 100);
  EXPECT_TRUE(fabric.deliver_requests(1, 100).empty());
  EXPECT_TRUE(
      fabric.deliver_requests(1, 100 + config.remote_hop_cycles - 1).empty());
  const auto arrived =
      fabric.deliver_requests(1, 100 + config.remote_hop_cycles);
  ASSERT_EQ(arrived.size(), 1u);
  EXPECT_EQ(arrived[0].addr, 0x42u);
  EXPECT_TRUE(fabric.idle());
}

TEST(Interconnect, LanesAreIndependentPerDestination) {
  SimConfig config;
  Interconnect fabric(config, 3);
  RawRequest request;
  fabric.send_request(request, 1, 0);
  fabric.send_request(request, 2, 0);
  EXPECT_EQ(fabric.deliver_requests(1, 10000).size(), 1u);
  EXPECT_EQ(fabric.deliver_requests(2, 10000).size(), 1u);
  EXPECT_EQ(fabric.messages(), 2u);
}

TEST(Interconnect, CompletionsTravelToo) {
  SimConfig config;
  Interconnect fabric(config, 2);
  CompletedAccess done;
  done.target.tid = 7;
  fabric.send_completion(done, 0, 0);
  EXPECT_EQ(fabric.next_delivery(), config.remote_hop_cycles);
  const auto arrived =
      fabric.deliver_completions(0, config.remote_hop_cycles);
  ASSERT_EQ(arrived.size(), 1u);
  EXPECT_EQ(arrived[0].target.tid, 7);
}

// ------------------------------------------------------------- core model
TEST(CoreModel, SpmAccessesCompleteLocally) {
  SimConfig config;
  AddressMap map(config);
  RequestRouter router(config, map, 0);
  CoreModel core(config, 0, 0);
  Spm spm(config, 0, 0);
  std::vector<MemRecord> records = {
      MemRecord{spm.base() + 64, MemOp::kLoad, 8, 0},
      MemRecord{0x1000, MemOp::kLoad, 8, 0},
  };
  core.add_thread(0, &records);
  core.try_issue(0, router);  // SPM access, nothing routed
  EXPECT_FALSE(router.has_path_request());
  EXPECT_EQ(core.spm_accesses(), 1u);
  // After the SPM latency the main-memory access goes out.
  core.try_issue(10, router);
  EXPECT_TRUE(router.has_path_request());
  EXPECT_EQ(core.issued(), 1u);
  EXPECT_FALSE(core.finished());
  core.on_complete(0, 500);
  EXPECT_TRUE(core.finished());
}

TEST(CoreModel, ThreadsInterleaveWhileOthersStall) {
  SimConfig config;
  AddressMap map(config);
  RequestRouter router(config, map, 0);
  CoreModel core(config, 0, 0);
  std::vector<MemRecord> r0 = {MemRecord{0x1000, MemOp::kLoad, 8, 0}};
  std::vector<MemRecord> r1 = {MemRecord{0x2000, MemOp::kLoad, 8, 0}};
  core.add_thread(0, &r0);
  core.add_thread(1, &r1);
  core.try_issue(0, router);
  core.try_issue(1, router);  // thread 0 stalled; thread 1 proceeds
  EXPECT_EQ(core.issued(), 2u);
}

// ----------------------------------------------------------------- system
TEST(System, SingleNodeRunsTraceToCompletion) {
  SimConfig config;
  config.cores = 2;
  MemoryTrace trace(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    for (int i = 0; i < 5; ++i) {
      trace.load(static_cast<ThreadId>(t),
                 static_cast<Address>(i) * 256 + t * 16);
    }
    trace.fence(static_cast<ThreadId>(t));
  }
  System system(config);
  system.attach_trace(trace);
  const SystemRunSummary summary = system.run(2'000'000);
  EXPECT_TRUE(summary.completed);
  EXPECT_EQ(summary.completions, trace.size());
  EXPECT_GT(summary.avg_latency_cycles, 0.0);
}

TEST(System, MultiNodeRoutesRemoteTraffic) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  MemoryTrace trace(4);
  // Every thread touches BOTH nodes' memory.
  for (std::uint32_t t = 0; t < 4; ++t) {
    trace.load(static_cast<ThreadId>(t), 0x1000 + t * 16);
    trace.load(static_cast<ThreadId>(t), (8ull << 30) + 0x1000 + t * 16);
  }
  System system(config);
  system.attach_trace(trace);
  const SystemRunSummary summary = system.run(5'000'000);
  EXPECT_TRUE(summary.completed);
  EXPECT_EQ(summary.completions, trace.size());
  EXPECT_GT(system.fabric().messages(), 0u);
  // Both cubes saw traffic.
  EXPECT_GT(system.node(0).device().stats().requests, 0u);
  EXPECT_GT(system.node(1).device().stats().requests, 0u);
}

TEST(System, SpmTrafficNeverReachesTheCube) {
  SimConfig config;
  config.cores = 1;
  MemoryTrace trace(1);
  const Address spm_base = spm_window_base(config, 0, 0);
  for (int i = 0; i < 10; ++i) {
    trace.load(0, spm_base + static_cast<Address>(i) * 8);
  }
  System system(config);
  system.attach_trace(trace);
  const SystemRunSummary summary = system.run(100'000);
  EXPECT_TRUE(summary.completed);
  EXPECT_EQ(system.node(0).device().stats().requests, 0u);
}

/// Two nodes' threads each load a few lines after long compute gaps, half
/// of them from the other node: the event engine's wakes lie far apart.
MemoryTrace sparse_two_node_trace() {
  MemoryTrace trace(4);
  for (std::uint32_t i = 0; i < 6; ++i) {
    for (std::uint32_t t = 0; t < 4; ++t) {
      trace.instr(static_cast<ThreadId>(t), 700);
      trace.load(static_cast<ThreadId>(t), (t % 2 == 0 ? 0 : 8ull << 30) +
                                               (i * 4 + t) * Address{4096});
    }
  }
  return trace;
}

TEST(System, EventEngineLandsOnEverySamplerBoundary) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = sparse_two_node_trace();
  // A probe row records every cycle the engine visits.
  ActivityCensus census;
  std::set<Cycle> visited;
  census.add_component("visits", [&visited](Cycle now) {
    visited.insert(now);
    return false;
  });
  CycleSampler sampler(64);
  System system(config);
  system.attach_trace(trace);
  system.attach_census(&census);
  system.attach_sampler(&sampler);
  const SystemRunSummary summary = system.run_event();
  ASSERT_TRUE(summary.completed);
  EXPECT_EQ(summary.visited_cycles, visited.size());
  EXPECT_LT(summary.visited_cycles, summary.cycles / 2);
  for (Cycle boundary = 64; boundary < summary.cycles; boundary += 64) {
    EXPECT_EQ(visited.count(boundary), 1u) << "boundary " << boundary;
  }
}

// A run seals its census on exit: no row points into the System once it
// is gone, with no seal() from the caller.
TEST(System, RunSealsItsCensusBeforeTheSystemDies) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = sparse_two_node_trace();
  ActivityCensus census;
  {
    System system(config);
    system.attach_trace(trace);
    system.attach_census(&census);
    ASSERT_TRUE(system.run_event().completed);
  }
  const std::uint64_t observed = census.observed_cycles();
  census.observe(observed + 100);
  StatSet metrics;
  census.export_metrics(metrics);
  EXPECT_GT(metrics.get("node0.banks.active_cycles"), 0.0);
  EXPECT_EQ(metrics.get("fabric.active_cycles") +
                metrics.get("fabric.idle_cycles"),
            static_cast<double>(observed + 101));
  EXPECT_NE(census.to_json().find("\"node1.router\""), std::string::npos);
}

TEST(System, HitsCycleCapGracefully) {
  SimConfig config;
  config.cores = 1;
  MemoryTrace trace(1);
  for (int i = 0; i < 100; ++i) trace.load(0, static_cast<Address>(i) * 256);
  System system(config);
  system.attach_trace(trace);
  const SystemRunSummary summary = system.run(10);  // far too few cycles
  EXPECT_FALSE(summary.completed);
  EXPECT_EQ(summary.cycles, 10u);
}

}  // namespace
}  // namespace mac3d
