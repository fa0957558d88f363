// Unit tests: the MAC top level — intake ports, pop cadence, bypass path,
// fences, response de-coalescing, latency bookkeeping.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mac/coalescer.hpp"
#include "mem/hmc_device.hpp"

namespace mac3d {
namespace {

RawRequest make(Address addr, MemOp op = MemOp::kLoad, ThreadId tid = 0,
                Tag tag = 0) {
  RawRequest request;
  request.addr = addr;
  request.op = op;
  request.tid = tid;
  request.tag = tag;
  return request;
}

class CoalescerTest : public ::testing::Test {
 protected:
  std::vector<CompletedAccess> settle(Cycle& now) {
    std::vector<CompletedAccess> all;
    while (!mac_.idle()) {
      mac_.tick(now);
      for (auto& done : mac_.drain(now)) all.push_back(done);
      const Cycle next = mac_.next_event(now);
      now = next <= now ? now + 1 : next;
    }
    return all;
  }

  SimConfig config_;
  HmcDevice device_{config_};
  MacCoalescer mac_{config_, device_};
};

TEST_F(CoalescerTest, PairMergesIntoOnePacketServingBothThreads) {
  Cycle now = 0;
  ASSERT_TRUE(mac_.try_accept(make(0xA00, MemOp::kLoad, 0, 1), now));
  ASSERT_TRUE(mac_.try_accept(make(0xA10, MemOp::kLoad, 1, 1), now));
  const auto done = settle(now);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(mac_.stats().packets_out, 1u);
  EXPECT_EQ(mac_.stats().built_out, 1u);
  EXPECT_EQ(mac_.stats().packets_by_size.at(64), 1u);
  // Both threads answered at the same cycle by the same packet.
  EXPECT_EQ(done[0].completed, done[1].completed);
}

TEST_F(CoalescerTest, RowBurstCoalescesAcrossThreads) {
  // Fig. 2 scenario: sixteen threads load the sixteen FLITs of one row
  // (fed at the dual-ported intake rate). Far fewer than 16 transactions
  // leave the MAC, and every thread gets its answer.
  Cycle now = 0;
  std::vector<CompletedAccess> done;
  for (std::uint32_t t = 0; t < 16; ++t) {
    while (!mac_.try_accept(
        make(0xA00 + t * 16, MemOp::kLoad, static_cast<ThreadId>(t), 1),
        now)) {
      mac_.tick(now);
      for (auto& c : mac_.drain(now)) done.push_back(c);
      ++now;
    }
  }
  for (auto& c : settle(now)) done.push_back(c);
  EXPECT_EQ(done.size(), 16u);
  EXPECT_LT(mac_.stats().packets_out, 16u);
  EXPECT_GT(mac_.stats().coalescing_efficiency(), 0.4);
}

TEST_F(CoalescerTest, DualPortAcceptsOneMergeOneAllocPerCycle) {
  Cycle now = 0;
  ASSERT_TRUE(mac_.try_accept(make(0xA00, MemOp::kLoad, 0, 1), now));  // alloc
  ASSERT_TRUE(mac_.try_accept(make(0xA10, MemOp::kLoad, 1, 1), now));  // merge
  // Third same-cycle request needs a port that is already used.
  EXPECT_FALSE(mac_.try_accept(make(0xB00, MemOp::kLoad, 2, 1), now));
  EXPECT_FALSE(mac_.try_accept(make(0xA20, MemOp::kLoad, 3, 1), now));
  // Next cycle both ports are free again.
  ++now;
  EXPECT_TRUE(mac_.try_accept(make(0xB00, MemOp::kLoad, 2, 1), now));
  EXPECT_TRUE(mac_.try_accept(make(0xA20, MemOp::kLoad, 3, 1), now));
}

TEST_F(CoalescerTest, SingleRequestBypassesAs16B) {
  Cycle now = 0;
  ASSERT_TRUE(mac_.try_accept(make(0xABC0, MemOp::kLoad, 0, 7), now));
  const auto done = settle(now);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(mac_.stats().bypass_out, 1u);
  EXPECT_EQ(mac_.stats().built_out, 0u);
  EXPECT_EQ(mac_.stats().packets_by_size.at(16), 1u);
  EXPECT_EQ(done[0].target.tag, 7u);
}

TEST_F(CoalescerTest, EveryRawRequestGetsExactlyOneCompletion) {
  Cycle now = 0;
  std::map<std::uint32_t, int> seen;
  for (std::uint32_t i = 0; i < 200; ++i) {
    while (!mac_.try_accept(make((i % 40) * 256 + (i % 16) * 16,
                                 i % 3 == 0 ? MemOp::kStore : MemOp::kLoad,
                                 static_cast<ThreadId>(i % 8),
                                 static_cast<Tag>(i)),
                            now)) {
      mac_.tick(now);
      for (auto& done : mac_.drain(now)) {
        ++seen[(done.target.tid << 16) | done.target.tag];
      }
      ++now;
    }
    mac_.tick(now);
    for (auto& done : mac_.drain(now)) {
      ++seen[(done.target.tid << 16) | done.target.tag];
    }
    ++now;
  }
  for (auto& done : settle(now)) {
    ++seen[(done.target.tid << 16) | done.target.tag];
  }
  EXPECT_EQ(seen.size(), 200u);
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << "key " << key;
  }
  EXPECT_EQ(mac_.stats().completions, 200u);
}

TEST_F(CoalescerTest, FenceWaitsForAllPriorRequests) {
  Cycle now = 0;
  ASSERT_TRUE(mac_.try_accept(make(0xA00, MemOp::kLoad, 0, 1), now));
  ++now;
  ASSERT_TRUE(mac_.try_accept(make(0, MemOp::kFence, 0, 2), now));
  ++now;
  ASSERT_TRUE(mac_.try_accept(make(0xB00, MemOp::kLoad, 0, 3), now));

  Cycle load_done = 0;
  Cycle fence_done = 0;
  Cycle second_load_done = 0;
  for (const auto& done : settle(now)) {
    if (done.fence) {
      fence_done = done.completed;
    } else if (done.target.tag == 1) {
      load_done = done.completed;
    } else {
      second_load_done = done.completed;
    }
  }
  EXPECT_GT(fence_done, 0u);
  EXPECT_GE(fence_done, load_done);        // fence after the prior load
  EXPECT_GT(second_load_done, fence_done); // later op after the fence
  EXPECT_EQ(mac_.stats().fences_in, 1u);
}

TEST_F(CoalescerTest, AtomicGoesStraightThroughUncoalesced) {
  Cycle now = 0;
  ASSERT_TRUE(mac_.try_accept(make(0xC40, MemOp::kAtomic, 0, 1), now));
  ++now;
  ASSERT_TRUE(mac_.try_accept(make(0xC50, MemOp::kAtomic, 1, 1), now));
  settle(now);
  EXPECT_EQ(mac_.stats().atomic_out, 2u);
  EXPECT_EQ(device_.stats().atomics, 2u);
  EXPECT_EQ(mac_.stats().packets_out, 2u);
}

TEST_F(CoalescerTest, BuilderPopCadenceIsTwoCycles) {
  // Two coalesced entries in the queue leave >= 2 cycles apart.
  Cycle now = 0;
  ASSERT_TRUE(mac_.try_accept(make(0xA00, MemOp::kLoad, 0, 1), now));
  ASSERT_TRUE(mac_.try_accept(make(0xA10, MemOp::kLoad, 1, 1), now));
  ++now;
  ASSERT_TRUE(mac_.try_accept(make(0xB00, MemOp::kLoad, 2, 1), now));
  ASSERT_TRUE(mac_.try_accept(make(0xB10, MemOp::kLoad, 3, 1), now));
  std::map<Cycle, int> by_completion;
  for (const auto& done : settle(now)) ++by_completion[done.completed];
  ASSERT_EQ(by_completion.size(), 2u);  // two packets
  const Cycle first = by_completion.begin()->first;
  const Cycle second = std::next(by_completion.begin())->first;
  EXPECT_GE(second - first, 2u);
}

TEST_F(CoalescerTest, LatencyIsMeasuredPerRawRequest) {
  Cycle now = 0;
  ASSERT_TRUE(mac_.try_accept(make(0xA00, MemOp::kLoad, 0, 1), now));
  settle(now);
  const double latency = mac_.stats().raw_latency_cycles.mean();
  // Bypass path: ~93 ns device latency plus a few MAC cycles.
  EXPECT_GT(latency, 250.0);
  EXPECT_LT(latency, 400.0);
}

TEST_F(CoalescerTest, StorageMatchesPaperTotal) {
  // Sec. 5.3.3: 2048 B ARQ + 14 B builder = 2062 B at 32 entries.
  EXPECT_EQ(mac_.storage_bytes(), 2062u);
}

TEST_F(CoalescerTest, IdleAndNextEventBehave) {
  EXPECT_TRUE(mac_.idle());
  EXPECT_EQ(mac_.next_event(5), 0u);
  Cycle now = 0;
  ASSERT_TRUE(mac_.try_accept(make(0xA00), now));
  EXPECT_FALSE(mac_.idle());
  EXPECT_GT(mac_.next_event(now), now);
  settle(now);
  EXPECT_TRUE(mac_.idle());
}

TEST_F(CoalescerTest, CoalescingEfficiencyMatchesDefinition) {
  // Two raw requests merged into one packet: efficiency = 1 - 1/2.
  Cycle now = 0;
  ASSERT_TRUE(mac_.try_accept(make(0xA00, MemOp::kLoad, 0, 1), now));
  ASSERT_TRUE(mac_.try_accept(make(0xA40, MemOp::kLoad, 1, 1), now));
  settle(now);
  EXPECT_EQ(mac_.stats().raw_in, 2u);
  EXPECT_EQ(mac_.stats().packets_out, 1u);
  EXPECT_DOUBLE_EQ(mac_.stats().coalescing_efficiency(), 0.5);
}

}  // namespace
}  // namespace mac3d
