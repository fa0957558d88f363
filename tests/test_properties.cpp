// Property-based tests: parameterized sweeps over synthetic traces with
// controlled row locality, thread counts and ARQ sizes, checking the
// monotonicity and bound properties of DESIGN.md §6.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/flat_cycle_map.hpp"
#include "common/ring_queue.hpp"
#include "common/rng.hpp"
#include "sim/driver.hpp"
#include "workloads/all.hpp"
#include "trace/trace.hpp"

namespace mac3d {
namespace {

/// Synthetic trace generator with tunable locality: each thread walks a
/// sequential stream with probability `locality` and jumps to a random
/// row otherwise.
MemoryTrace locality_trace(double locality, std::uint32_t threads,
                           std::uint32_t per_thread, std::uint64_t seed) {
  MemoryTrace trace(threads);
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> position(threads, 0);
  for (std::uint32_t i = 0; i < per_thread; ++i) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      if (rng.uniform() >= locality) {
        position[t] = rng.below(1ull << 22) * 16;  // random FLIT
      } else {
        position[t] += 8;  // continue the shared stream
      }
      const Address addr = (i * threads + t) % 4 == 0
                               ? position[t]
                               : (static_cast<Address>(i) * threads + t) * 8;
      trace.instr(static_cast<ThreadId>(t), 2);
      trace.load(static_cast<ThreadId>(t), addr & ~0x7ull);
    }
  }
  return trace;
}

// ------------------------------------------------- locality monotonicity
class LocalitySweep : public ::testing::TestWithParam<double> {};

TEST_P(LocalitySweep, EfficiencyWithinBounds) {
  SimConfig config;
  const MemoryTrace trace = locality_trace(GetParam(), 8, 400, 7);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 8);
  EXPECT_GE(mac.coalescing_efficiency(), 0.0);
  // 16 FLITs per row and a 12-target entry bound the reduction.
  EXPECT_LE(mac.coalescing_efficiency(), 1.0 - 1.0 / 12.0 + 1e-9);
  EXPECT_EQ(mac.completions, trace.size());
}

INSTANTIATE_TEST_SUITE_P(Levels, LocalitySweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

TEST(LocalityMonotonicity, MoreLocalityNeverHurtsMuch) {
  SimConfig config;
  double previous = -1.0;
  for (const double locality : {0.0, 0.5, 1.0}) {
    const MemoryTrace trace = locality_trace(locality, 8, 400, 11);
    const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config,
                                        8);
    // Allow small noise but require the overall trend to be upward.
    EXPECT_GT(mac.coalescing_efficiency(), previous - 0.05)
        << "locality " << locality;
    previous = mac.coalescing_efficiency();
  }
  EXPECT_GT(previous, 0.2);  // fully local streams coalesce substantially
}

// ------------------------------------------------------ ARQ size sweep
class ArqSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ArqSizeSweep, CompletesAndStaysBounded) {
  SimConfig config;
  config.arq_entries = GetParam();
  const MemoryTrace trace = locality_trace(0.7, 8, 300, 13);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 8);
  EXPECT_EQ(mac.completions, trace.size());
  EXPECT_GE(mac.coalescing_efficiency(), 0.0);
  EXPECT_LE(mac.avg_targets_per_entry,
            static_cast<double>(config.max_targets_per_entry()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ArqSizeSweep,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u, 128u));

TEST(ArqSizeTrend, TinyQueueCoalescesLessThanPaperSize) {
  // Fig. 11's trend, checked on a real workload whose bursty arrivals
  // exercise queue depth (synthetic saturating streams pin the dual-port
  // equilibrium regardless of ARQ size).
  SimConfig tiny;
  tiny.arq_entries = 4;
  SimConfig paper;  // 32 entries
  WorkloadParams params;
  params.threads = 8;
  params.scale = 0.1;
  params.config = paper;
  const MemoryTrace trace = gap_cc_workload()->trace(params);
  const DriverResult small = run_policy(CoalescerPolicy::kMac, trace, tiny, 8);
  const DriverResult large = run_policy(CoalescerPolicy::kMac, trace, paper, 8);
  EXPECT_GT(large.coalescing_efficiency(),
            small.coalescing_efficiency() + 0.02);
}

// -------------------------------------------------- thread count sweep
class ThreadSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ThreadSweep, ConservationHoldsForAnyThreadCount) {
  SimConfig config;
  const std::uint32_t threads = GetParam();
  const MemoryTrace trace = locality_trace(0.6, threads, 300, 23);
  const DriverResult raw = run_policy(CoalescerPolicy::kRaw, trace, config,
                                      threads);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config,
                                      threads);
  EXPECT_EQ(raw.completions, trace.size());
  EXPECT_EQ(mac.completions, trace.size());
  EXPECT_LE(mac.packets, raw.packets);
  EXPECT_LE(mac.overhead_bytes, raw.overhead_bytes);
}

INSTANTIATE_TEST_SUITE_P(Counts, ThreadSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u));

// ----------------------------------------- builder granularity sweep
class GranularitySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GranularitySweep, PacketsRespectGranularity) {
  SimConfig config;
  config.builder_min_bytes = GetParam();
  const MemoryTrace trace = locality_trace(0.9, 8, 300, 29);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 8);
  for (const auto& [size, count] : mac.packets_by_size) {
    (void)count;
    // Bypass packets are 16 B; built packets are multiples of the
    // granularity and powers of two up to the row size.
    if (size == 16 && GetParam() != 16) continue;
    EXPECT_EQ(size % GetParam(), 0u);
    EXPECT_LE(size, config.row_bytes);
  }
  EXPECT_EQ(mac.completions, trace.size());
}

INSTANTIATE_TEST_SUITE_P(Granularities, GranularitySweep,
                         ::testing::Values(16u, 32u, 64u, 128u, 256u));

// -------------------------------------------------- config matrix sweep
using ConfigTuple = std::tuple<std::uint32_t, std::uint32_t>;  // vaults, links
class GeometrySweep : public ::testing::TestWithParam<ConfigTuple> {};

TEST_P(GeometrySweep, RunsCleanlyOnAnyGeometry) {
  SimConfig config;
  config.vaults = std::get<0>(GetParam());
  config.hmc_links = std::get<1>(GetParam());
  config.validate();
  const MemoryTrace trace = locality_trace(0.5, 4, 200, 31);
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 4);
  EXPECT_EQ(mac.completions, trace.size());
  EXPECT_GT(mac.makespan, 0u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, GeometrySweep,
                         ::testing::Values(ConfigTuple{8, 2},
                                           ConfigTuple{16, 4},
                                           ConfigTuple{32, 4},
                                           ConfigTuple{32, 8},
                                           ConfigTuple{64, 4}));

// -------------------------------------------------------- seed fuzzing
class SeedFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedFuzz, RandomTrafficNeverBreaksInvariants) {
  SimConfig config;
  Xoshiro256 rng(GetParam());
  MemoryTrace trace(4);
  const std::uint32_t n = 600;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto tid = static_cast<ThreadId>(rng.below(4));
    const Address addr = rng.below(1ull << 26) & ~0xFull;
    switch (rng.below(20)) {
      case 0: trace.atomic(tid, addr & ~0x7ull, 8); break;
      case 1: trace.fence(tid); break;
      case 2: trace.store(tid, addr, 8); break;
      default: trace.load(tid, addr, 8); break;
    }
  }
  const DriverResult mac = run_policy(CoalescerPolicy::kMac, trace, config, 4);
  const DriverResult raw = run_policy(CoalescerPolicy::kRaw, trace, config, 4);
  EXPECT_EQ(mac.completions, trace.size());
  EXPECT_EQ(raw.completions, trace.size());
  EXPECT_LE(mac.packets, raw.packets);
  EXPECT_EQ(mac.overhead_bytes, mac.packets * kAccessOverheadBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull));

// ------------------------------------------------- container property fuzz
// The hot-path containers (common/flat_cycle_map.hpp, ring_queue.hpp)
// replace std::unordered_map / std::deque on the driver's critical loops;
// these differentials pin them to the standard containers' semantics.

/// FlatCycleMap's home slot (the Fibonacci hash), replicated so tests can
/// construct keys whose probe chains straddle the ring boundary.
std::size_t fib_home(std::uint64_t key, std::size_t capacity) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
         (capacity - 1);
}

// Backward-shift deletion across the wrap-around: cluster keys whose
// homes sit in the last slots of a 16-slot table so their probe chains
// wrap to slot 0, then delete in many different orders. Every order must
// leave exactly the reference's surviving keys findable — a shift that
// moves an element in front of its home (the classic wrap bug) loses it.
TEST(FlatCycleMapProperty, WrapAroundDeletionMatchesReference) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < 10; ++k) {
    if (fib_home(k, 16) >= 13) keys.push_back(k);
  }
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    FlatCycleMap map;
    std::unordered_map<std::uint64_t, Cycle> ref;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (rng.below(4) == 0) continue;  // vary the insertion subset
      map.put(keys[i], 100 + i);
      ref[keys[i]] = 100 + i;
    }
    ASSERT_EQ(map.capacity(), 16u);  // all homes really share one table
    std::vector<std::uint64_t> order = keys;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (const std::uint64_t key : order) {
      const auto it = ref.find(key);
      const Cycle expected = it == ref.end() ? 7777 : it->second;
      EXPECT_EQ(map.take(key, 7777), expected) << "trial " << trial;
      if (it != ref.end()) ref.erase(it);
    }
    EXPECT_TRUE(map.empty()) << "trial " << trial;
  }
}

// Random put/take/clear stream over a small key universe (heavy collision
// and deletion traffic) — size and every take result must match
// std::unordered_map at each step.
TEST(FlatCycleMapProperty, RandomOpsMatchUnorderedMap) {
  Xoshiro256 rng(2024);
  FlatCycleMap map;
  std::unordered_map<std::uint64_t, Cycle> ref;
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t key = rng.below(97);
    switch (rng.below(5)) {
      case 0:
      case 1:
      case 2: {
        const Cycle value = rng.below(1u << 20);
        map.put(key, value);
        ref[key] = value;
        break;
      }
      case 3: {
        const auto it = ref.find(key);
        const Cycle expected = it == ref.end() ? 424242 : it->second;
        ASSERT_EQ(map.take(key, 424242), expected) << "op " << op;
        if (it != ref.end()) ref.erase(it);
        break;
      }
      default:
        if (rng.below(500) == 0) {
          map.clear();
          ref.clear();
        }
        break;
    }
    ASSERT_EQ(map.size(), ref.size()) << "op " << op;
  }
}

// RingQueue vs std::deque, with pop-heavy phases so the live span's head
// climbs past the midpoint before growth — grow() must relocate a
// wrapped (head > tail) span without reordering it.
TEST(RingQueueProperty, RandomOpsMatchDeque) {
  Xoshiro256 rng(7);
  RingQueue<std::uint64_t> queue;
  std::deque<std::uint64_t> ref;
  std::uint64_t next = 0;
  for (int op = 0; op < 200000; ++op) {
    // Phase-dependent push bias: drain phases advance the head, push
    // phases then force grow() while the contents wrap.
    const bool push_phase = (op / 1000) % 2 == 0;
    if (ref.empty() || rng.below(10) < (push_phase ? 7u : 3u)) {
      queue.push_back(next);
      ref.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(queue.front(), ref.front()) << "op " << op;
      queue.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(queue.size(), ref.size()) << "op " << op;
    if (op % 4096 == 0 && !ref.empty()) {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(queue.at(i), ref[i]) << "op " << op << " index " << i;
      }
    }
  }
}

}  // namespace
}  // namespace mac3d
