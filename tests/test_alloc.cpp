// Allocation gate for the completion path (DESIGN.md §policy): drain(now)
// hands completions over in buffers that the path's request ledger and the
// device reuse, so once those buffers have grown to the largest drain, a
// drain allocates nothing. Each policy is driven through make_memory_path
// on a seeded stream, under the step and the event clock, while a
// counting global operator new tallies the allocations made inside
// drain(now).
//
// The replacement operator new is global, so this file is its own test
// executable and touches no other test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "mem/hmc_device.hpp"
#include "sim/memory_path.hpp"
#include "sim/tag_allocator.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

}  // namespace

// The replacements pair malloc with free (so sanitizers see matching
// calls); once GCC inlines them into new/delete expressions it can no
// longer tell.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}

namespace mac3d {
namespace {

constexpr Cycle kNever = std::numeric_limits<Cycle>::max();
constexpr std::uint32_t kThreads = 8;
constexpr std::uint32_t kRecordsPerThread = 1500;
/// Buffer growth after the warm-up: a few doublings of the path's and the
/// device's buffers when a later drain is larger than every earlier one.
constexpr std::uint64_t kGrowthAllowance = 32;

struct Record {
  Address addr = 0;
  MemOp op = MemOp::kLoad;
  Cycle gap = 0;
};

/// Per thread: half sequential 8 B accesses, half scattered over 1 MiB
/// (so the MAC and the MSHR both merge and bypass), a few atomics and
/// fences, and occasional compute gaps the event clock can skip.
std::vector<std::vector<Record>> make_stream(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<Record>> stream(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    Address cursor = (Address{t} << 24);
    for (std::uint32_t i = 0; i < kRecordsPerThread; ++i) {
      Record record;
      const std::uint64_t kind = rng.below(100);
      record.op = kind < 2    ? MemOp::kFence
                  : kind < 5  ? MemOp::kAtomic
                  : kind < 25 ? MemOp::kStore
                              : MemOp::kLoad;
      if (record.op != MemOp::kFence) {
        if (rng.below(2) == 0) {
          record.addr = cursor;
          cursor += 8;
        } else {
          record.addr = (Address{t} << 24) + (rng.below(1 << 20) & ~7ULL);
        }
      }
      record.gap = rng.below(8) == 0 ? rng.below(300) : 0;
      stream[t].push_back(record);
    }
  }
  return stream;
}

struct Tally {
  std::uint64_t completions = 0;
  std::uint64_t counted_drains = 0;     ///< drains after the warm-up
  std::uint64_t counted_nonempty = 0;
  std::uint64_t counted_allocations = 0;
  std::uint64_t empty_drain_allocations = 0;  ///< over the whole run
};

/// Streams every record through `policy`'s path (round-robin intake until
/// the path refuses, per-thread tag pools) and counts the allocations of
/// each drain(now) once a quarter of the records completed.
Tally drive(CoalescerPolicy policy, bool event_clock) {
  SimConfig config;
  config.policy = policy;
  HmcDevice device(config);
  const std::unique_ptr<MemoryPath> path = make_memory_path(config, device);
  const std::vector<std::vector<Record>> stream = make_stream(42);

  struct Cursor {
    std::size_t next = 0;
    Cycle arrive_at = 0;
  };
  std::vector<Cursor> cursors(kThreads);
  std::vector<TagAllocator> tags(kThreads, TagAllocator(64));
  std::uint64_t records_left = 0;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    records_left += stream[t].size();
    cursors[t].arrive_at = stream[t].front().gap;
  }
  const std::uint64_t warm_up = records_left / 4;

  Tally tally;
  Cycle now = 0;
  std::uint32_t turn = 0;
  while (records_left > 0 || !path->idle()) {
    for (std::uint32_t scan = 0; scan < kThreads && records_left > 0;
         ++scan) {
      const std::uint32_t t = (turn + scan) % kThreads;
      Cursor& cursor = cursors[t];
      if (cursor.next >= stream[t].size() || cursor.arrive_at > now ||
          !tags[t].available()) {
        continue;
      }
      const Record& record = stream[t][cursor.next];
      RawRequest request;
      request.addr = record.addr;
      request.op = record.op;
      request.size = record.op == MemOp::kFence ? 0 : 8;
      request.tid = static_cast<ThreadId>(t);
      request.tag = tags[t].peek();
      request.core = static_cast<CoreId>(t % config.cores);
      if (!path->try_accept(request, now)) break;
      tags[t].allocate();
      --records_left;
      if (++cursor.next < stream[t].size()) {
        cursor.arrive_at = now + stream[t][cursor.next].gap;
      }
      turn = (t + 1) % kThreads;
    }
    path->tick(now);

    const bool counting = tally.completions >= warm_up;
    g_allocations = 0;
    g_counting = true;
    const std::vector<CompletedAccess>& done = path->drain(now);
    g_counting = false;
    if (done.empty()) tally.empty_drain_allocations += g_allocations;
    if (counting) {
      ++tally.counted_drains;
      tally.counted_nonempty += done.empty() ? 0 : 1;
      tally.counted_allocations += g_allocations;
    }
    for (const CompletedAccess& access : done) {
      tags[access.target.tid].release(access.target.tag);
      ++tally.completions;
    }

    if (!event_clock) {
      ++now;
      continue;
    }
    Cycle next = kNever;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      if (cursors[t].next < stream[t].size() && tags[t].available()) {
        next = std::min(next, std::max(cursors[t].arrive_at, now + 1));
      }
    }
    const Cycle path_next = path->next_event(now);
    if (path_next > now) next = std::min(next, path_next);
    now = next == kNever ? now + 1 : next;
  }
  return tally;
}

struct Case {
  CoalescerPolicy policy;
  bool event_clock;
};

class DrainAllocations : public ::testing::TestWithParam<Case> {};

TEST_P(DrainAllocations, SteadyStateDrainsAllocateNothing) {
  const Case c = GetParam();
  const Tally tally = drive(c.policy, c.event_clock);
  EXPECT_EQ(tally.completions, std::uint64_t{kThreads} * kRecordsPerThread);
  // The gate must see real work: thousands of drains, hundreds with
  // completions in them.
  EXPECT_GT(tally.counted_drains, 2000u);
  EXPECT_GT(tally.counted_nonempty, 500u);
  EXPECT_EQ(tally.empty_drain_allocations, 0u);
  EXPECT_LE(tally.counted_allocations, kGrowthAllowance)
      << tally.counted_nonempty << " non-empty drains after the warm-up";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DrainAllocations,
    ::testing::Values(Case{CoalescerPolicy::kRaw, false},
                      Case{CoalescerPolicy::kRaw, true},
                      Case{CoalescerPolicy::kMac, false},
                      Case{CoalescerPolicy::kMac, true},
                      Case{CoalescerPolicy::kMshr, false},
                      Case{CoalescerPolicy::kMshr, true},
                      Case{CoalescerPolicy::kWarp, false},
                      Case{CoalescerPolicy::kWarp, true}),
    [](const ::testing::TestParamInfo<Case>& test) {
      return std::string(to_string(test.param.policy)) +
             (test.param.event_clock ? "_event" : "_step");
    });

}  // namespace
}  // namespace mac3d
