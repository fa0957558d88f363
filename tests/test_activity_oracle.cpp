// Oracle property suite for the event-driven fast-forward engine
// (docs/PARALLELISM.md §event-driven engine). Every tickable unit
// advertises a wake oracle, `next_event`; the engine's correctness rests
// on two properties this file fuzzes directly:
//
//  1. No early work: after tick(now), the unit does no observable work at
//     any cycle strictly before the advertised next-activity cycle unless
//     new input arrives first. Work is what the idle census sees: any of
//     the unit's census rows active at `now`, or a completion.
//  2. Jump completeness: ticking ONLY at advertised cycles (plus input
//     cycles) produces bit-identical completions and stats to ticking
//     every cycle — skipped cycles were provably dead.
//
// Plus exactness of the device's next_completion oracle, the device's
// cached busy-until thresholds against a full bank scan, and the "drained
// means silent forever" contract (next_event == 0).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/mshr.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "mac/coalescer.hpp"
#include "mem/hmc_device.hpp"
#include "obs/profiler.hpp"
#include "sim/raw_path.hpp"

namespace mac3d {
namespace {

constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/// One scheduled intake: present `request` to the unit at `cycle` (retry
/// every cycle afterwards until accepted, like the request router does).
struct FeedItem {
  Cycle cycle = 0;
  RawRequest request;
};

/// Random feed with bursts and long dead gaps (the spans the event engine
/// must prove skippable). Tags are unique per thread so (tid, tag) stays
/// unique among in-flight requests.
std::vector<FeedItem> make_feed(std::uint64_t seed, std::uint32_t count) {
  Xoshiro256 rng(seed);
  std::vector<FeedItem> feed;
  feed.reserve(count);
  Cycle cycle = 0;
  std::vector<Tag> next_tag(4, 0);
  for (std::uint32_t i = 0; i < count; ++i) {
    // Mostly back-to-back, sometimes a gap, occasionally a long desert.
    switch (rng.below(8)) {
      case 0: cycle += 20 + rng.below(200); break;
      case 1: cycle += 1 + rng.below(8); break;
      default: break;
    }
    FeedItem item;
    item.cycle = cycle;
    RawRequest& request = item.request;
    request.tid = static_cast<ThreadId>(rng.below(4));
    request.tag = next_tag[request.tid]++;
    const Address row = rng.below(64) * 256;
    request.addr = row + rng.below(16) * 16;
    switch (rng.below(16)) {
      case 0: request.op = MemOp::kFence; break;
      case 1: request.op = MemOp::kAtomic; break;
      case 2: request.op = MemOp::kStore; break;
      default: request.op = MemOp::kLoad; break;
    }
    feed.push_back(item);
  }
  return feed;
}

/// Serialize everything observable about one drained completion.
void log_completions(const std::vector<CompletedAccess>& done, Cycle now,
                     std::ostringstream& log) {
  for (const CompletedAccess& c : done) {
    log << now << ':' << c.target.tid << '.' << c.target.tag << '@'
        << c.target.flit << (c.fence ? 'F' : c.write ? 'W' : 'R')
        << c.accepted << '-' << c.completed << '\n';
  }
}

/// The unit's census rows (every one a threshold row), attached through
/// its register_census, read as one bit per visited cycle: did any row
/// count the cycle as active?
class UnitCensus {
 public:
  template <typename Path>
  explicit UnitCensus(const Path& path) {
    path.register_census(census_, "");
  }
  UnitCensus(const UnitCensus&) = delete;
  UnitCensus& operator=(const UnitCensus&) = delete;

  /// Observe `now` (after its tick); true when any row was active.
  bool worked(Cycle now) {
    const std::uint64_t before = active_cycles();
    census_.observe(now);
    return active_cycles() != before;
  }

 private:
  [[nodiscard]] std::uint64_t active_cycles() const {
    std::uint64_t total = 0;
    for (const ActivityCensus::Row& row : census_.rows()) {
      total += row.active_cycles;
    }
    return total;
  }

  ActivityCensus census_;
};

/// Strict cycle-by-cycle run: feeds due requests (with router-style
/// retry), ticks every cycle, and asserts the no-early-work property
/// against the unit's advertised next-activity cycle. Writes the
/// completion log to `*log`; `drained_at` reports the last cycle touched.
template <typename Path>
void run_strict(Path& path, const std::vector<FeedItem>& feed,
                std::string* out, Cycle* drained_at) {
  std::ostringstream log;
  UnitCensus census(path);
  std::size_t next_feed = 0;
  std::vector<RawRequest> retry;
  // Earliest cycle internal work is allowed; kNeverCycle after the unit
  // reported itself drained (next_event == 0).
  Cycle promise = 0;
  Cycle now = 0;
  const Cycle horizon =
      feed.empty() ? 1'000'000 : feed.back().cycle + 1'000'000;
  for (;; ++now) {
    ASSERT_LT(now, horizon) << "unit failed to drain";
    bool fed = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < retry.size(); ++i) {
      if (path.try_accept(retry[i], now)) {
        fed = true;
      } else {
        retry[kept++] = retry[i];
      }
    }
    retry.resize(kept);
    while (next_feed < feed.size() && feed[next_feed].cycle <= now) {
      if (path.try_accept(feed[next_feed].request, now)) {
        fed = true;
      } else {
        retry.push_back(feed[next_feed].request);
      }
      ++next_feed;
    }
    path.tick(now);
    const std::vector<CompletedAccess> done = path.drain(now);
    log_completions(done, now, log);
    const bool work = census.worked(now) || !done.empty();
    if (work && !fed) {
      EXPECT_GE(now, promise)
          << "observable work at cycle " << now
          << " before the advertised next-activity cycle " << promise;
    }
    const Cycle next = path.next_event(now);
    if (next == 0) {
      EXPECT_TRUE(path.idle())
          << "next_event == 0 while the unit still holds work";
      if (next_feed == feed.size() && retry.empty()) break;
      promise = kNeverCycle;  // silent until the next feed arrives
    } else {
      EXPECT_GT(next, now) << "the oracle must advance the clock";
      promise = next;
    }
  }
  *drained_at = now;
  *out = log.str();
}

/// Oracle-jumped run: identical feed, but the clock jumps straight to
/// min(advertised next activity, next feed cycle, retry). Completions
/// must be bit-identical to the strict run.
template <typename Path>
std::string run_jumped(Path& path, const std::vector<FeedItem>& feed) {
  std::ostringstream log;
  std::size_t next_feed = 0;
  std::vector<RawRequest> retry;
  Cycle now = 0;
  for (;;) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < retry.size(); ++i) {
      if (!path.try_accept(retry[i], now)) retry[kept++] = retry[i];
    }
    retry.resize(kept);
    while (next_feed < feed.size() && feed[next_feed].cycle <= now) {
      if (!path.try_accept(feed[next_feed].request, now)) {
        retry.push_back(feed[next_feed].request);
      }
      ++next_feed;
    }
    path.tick(now);
    log_completions(path.drain(now), now, log);
    const Cycle advertised = path.next_event(now);
    Cycle next = kNeverCycle;
    if (advertised != 0) {
      next = advertised > now ? advertised : now + 1;
    }
    if (!retry.empty()) next = now + 1;
    if (next_feed < feed.size()) {
      const Cycle due =
          feed[next_feed].cycle > now ? feed[next_feed].cycle : now + 1;
      if (due < next) next = due;
    }
    if (next == kNeverCycle) break;  // drained, no input left
    now = next;
  }
  return log.str();
}

/// After draining, a unit must stay silent forever: next_event pinned at
/// 0 and ticks at arbitrary future cycles observable no-ops.
template <typename Path>
void expect_silent(Path& path, Cycle from) {
  UnitCensus census(path);
  for (const Cycle ahead : {1u, 2u, 17u, 1000u}) {
    const Cycle now = from + ahead;
    path.tick(now);
    EXPECT_TRUE(path.drain(now).empty());
    EXPECT_FALSE(census.worked(now));
    EXPECT_EQ(path.next_event(now), 0u);
    EXPECT_TRUE(path.idle());
  }
}

class OracleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleFuzz, MacCoalescerOracleIsSoundAndComplete) {
  const std::vector<FeedItem> feed = make_feed(GetParam(), 400);
  SimConfig config;

  HmcDevice strict_device(config, 0);
  MacCoalescer strict(config, strict_device);
  Cycle drained_at = 0;
  std::string expected;
  run_strict(strict, feed, &expected, &drained_at);
  if (::testing::Test::HasFatalFailure()) return;
  expect_silent(strict, drained_at);

  HmcDevice jumped_device(config, 0);
  MacCoalescer jumped(config, jumped_device);
  EXPECT_EQ(expected, run_jumped(jumped, feed));
  EXPECT_FALSE(expected.empty());
}

TEST_P(OracleFuzz, RawPathOracleIsSoundAndComplete) {
  const std::vector<FeedItem> feed = make_feed(GetParam() * 31 + 7, 400);
  SimConfig config;

  HmcDevice strict_device(config, 0);
  RawPath strict(config, strict_device);
  Cycle drained_at = 0;
  std::string expected;
  run_strict(strict, feed, &expected, &drained_at);
  if (::testing::Test::HasFatalFailure()) return;
  expect_silent(strict, drained_at);

  HmcDevice jumped_device(config, 0);
  RawPath jumped(config, jumped_device);
  EXPECT_EQ(expected, run_jumped(jumped, feed));
  EXPECT_FALSE(expected.empty());
}

TEST_P(OracleFuzz, MshrCoalescerOracleIsSoundAndComplete) {
  const std::vector<FeedItem> feed = make_feed(GetParam() * 53 + 11, 400);
  SimConfig config;

  HmcDevice strict_device(config, 0);
  MshrCoalescer strict(config, strict_device, 32, 64);
  Cycle drained_at = 0;
  std::string expected;
  run_strict(strict, feed, &expected, &drained_at);
  if (::testing::Test::HasFatalFailure()) return;
  expect_silent(strict, drained_at);

  HmcDevice jumped_device(config, 0);
  MshrCoalescer jumped(config, jumped_device, 32, 64);
  EXPECT_EQ(expected, run_jumped(jumped, feed));
  EXPECT_FALSE(expected.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull));

// ------------------------------------------------- device oracle exactness

TEST(DeviceOracle, NextCompletionIsExactNotJustConservative) {
  SimConfig config;
  HmcDevice device(config, 0);
  Cycle now = 0;
  std::uint32_t submitted = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    HmcRequest request;
    request.addr = static_cast<Address>(i) * 256;
    request.data_bytes = kFlitBytes;
    request.targets.push_back(
        Target{0, static_cast<Tag>(i), static_cast<std::uint8_t>(0)});
    if (!device.can_accept(request, now)) break;
    device.submit(std::move(request), now);
    ++submitted;
  }
  ASSERT_GT(submitted, 0u);

  std::uint32_t drained = 0;
  while (drained < submitted) {
    const Cycle completion = device.next_completion();
    ASSERT_NE(completion, 0u);
    ASSERT_GT(completion, now);
    // Nothing may surface before the advertised completion cycle...
    EXPECT_TRUE(device.drain(completion - 1).empty());
    // ...and something must surface exactly at it (exact, not early).
    const std::vector<HmcResponse> got = device.drain(completion);
    EXPECT_FALSE(got.empty());
    drained += static_cast<std::uint32_t>(got.size());
    now = completion;
  }
  EXPECT_EQ(device.next_completion(), 0u);
}

// ------------------------------------ device busy-until thresholds (cache)

/// Drive a seeded random submit stream through `device` and check, for
/// every cycle up to the last completion, that the cached O(1) thresholds
/// agree with a scan of every bank.
void expect_thresholds_match_bank_scan(HmcDevice& device, std::uint64_t seed,
                                       const SimConfig& config) {
  Xoshiro256 rng(seed);
  constexpr std::uint32_t kRequests = 600;
  std::uint32_t submitted = 0;
  std::uint32_t completed = 0;
  Cycle now = 0;
  for (; submitted < kRequests || completed < submitted; ++now) {
    ASSERT_LT(now, 10'000'000u) << "device failed to drain";
    // Bursty arrivals: several packets some cycles, long gaps others.
    const std::uint64_t burst = rng.below(4) == 0 ? rng.below(6) : 0;
    for (std::uint64_t i = 0; i < burst && submitted < kRequests; ++i) {
      HmcRequest request;
      const std::uint32_t flits =
          1 + static_cast<std::uint32_t>(rng.below(config.row_bytes /
                                                   kFlitBytes));
      const Address row = rng.below(4096) * config.row_bytes;
      const Address offset =
          rng.below(config.row_bytes / kFlitBytes - flits + 1) * kFlitBytes;
      request.addr = row + offset;
      request.data_bytes = flits * kFlitBytes;
      request.write = rng.below(3) == 0;
      request.atomic = !request.write && rng.below(8) == 0;
      request.id = submitted;
      if (!device.can_accept(request, now)) break;
      device.submit(std::move(request), now);
      ++submitted;
    }
    completed += static_cast<std::uint32_t>(device.drain(now).size());

    EXPECT_EQ(now < device.banks_busy_until(),
              device.banks_busy_fraction(now) > 0.0)
        << "cycle " << now;
    for (std::uint32_t v = 0; v < device.vault_count(); ++v) {
      EXPECT_EQ(now < device.vault_busy_until(v),
                device.vault_busy_fraction(v, now) > 0.0)
          << "vault " << v << " cycle " << now;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(completed, kRequests);
}

class BusyUntilCache : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BusyUntilCache, ThresholdsMatchTheBankScan) {
  for (const bool open_page : {false, true}) {
    SCOPED_TRACE(open_page ? "open-page" : "closed-page");
    SimConfig config;
    config.open_page = open_page;
    config.t_refi = 3000;  // refresh on, dense enough to stall accesses
    config.t_rfc = 200;
    HmcDevice device(config, 0);
    expect_thresholds_match_bank_scan(device, GetParam(), config);
    // reset() clears the thresholds in place; a second stream from cycle 0
    // must agree again.
    device.reset();
    EXPECT_EQ(device.banks_busy_until(), 0u);
    expect_thresholds_match_bank_scan(device, GetParam() + 1, config);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusyUntilCache,
                         ::testing::Values(1ull, 7ull, 42ull));

// ------------------------------------------ drained units advertise zero

TEST(MshrOracle, PendingFenceWakesAtTheNextCompletion) {
  SimConfig config;
  HmcDevice device(config, 0);
  MshrCoalescer mshr(config, device, 32, 64);
  RawRequest load;
  load.addr = 0x1000;
  load.tag = 1;
  ASSERT_TRUE(mshr.try_accept(load, 0));
  mshr.tick(0);  // dispatches the entry: one packet in flight
  RawRequest fence;
  fence.op = MemOp::kFence;
  fence.tag = 2;
  ASSERT_TRUE(mshr.try_accept(fence, 1));
  // The fence waits only on the in-flight response, so nothing can happen
  // before it lands.
  const Cycle completion = device.next_completion();
  ASSERT_GT(completion, 2u);
  EXPECT_EQ(mshr.next_event(1), completion);

  mshr.tick(completion);
  ASSERT_EQ(mshr.drain(completion).size(), 1u);
  // File empty, nothing in flight: the fence retires on the next tick.
  EXPECT_EQ(mshr.next_event(completion), completion + 1);
  mshr.tick(completion + 1);
  const std::vector<CompletedAccess>& retired = mshr.drain(completion + 1);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_TRUE(retired[0].fence);
  EXPECT_EQ(mshr.next_event(completion + 1), 0u);
}

TEST(DrainedOracle, FreshUnitsAdvertiseZeroAndStaySilent) {
  SimConfig config;
  HmcDevice mac_device(config, 0);
  MacCoalescer mac(config, mac_device);
  EXPECT_EQ(mac.next_event(0), 0u);
  expect_silent(mac, 0);

  HmcDevice raw_device(config, 0);
  RawPath raw(config, raw_device);
  EXPECT_EQ(raw.next_event(0), 0u);
  expect_silent(raw, 0);

  HmcDevice mshr_device(config, 0);
  MshrCoalescer mshr(config, mshr_device, 32, 64);
  EXPECT_EQ(mshr.next_event(0), 0u);
  expect_silent(mshr, 0);
}

}  // namespace
}  // namespace mac3d
