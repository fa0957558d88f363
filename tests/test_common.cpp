// Unit tests: common utilities (bit helpers, RNG, bounded FIFO, stats,
// configuration).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "common/bitutil.hpp"
#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "common/flat_cycle_map.hpp"
#include "common/parse_number.hpp"
#include "common/ring_queue.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace mac3d {
namespace {

// ---------------------------------------------------------------- bitutil
TEST(BitUtil, BitsExtractsRanges) {
  EXPECT_EQ(bits(0xABCD, 0, 4), 0xDu);
  EXPECT_EQ(bits(0xABCD, 4, 4), 0xCu);
  EXPECT_EQ(bits(0xABCD, 8, 8), 0xABu);
  EXPECT_EQ(bits(~0ULL, 0, 64), ~0ULL);
}

TEST(BitUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(256));
  EXPECT_TRUE(is_pow2(1ULL << 63));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(257));
}

TEST(BitUtil, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(16), 4u);
  EXPECT_EQ(log2_exact(1ULL << 33), 33u);
}

TEST(BitUtil, LowestHighestBit) {
  EXPECT_EQ(lowest_bit(0b1010), 1u);
  EXPECT_EQ(highest_bit(0b1010), 3u);
  EXPECT_EQ(lowest_bit(1ULL << 63), 63u);
  EXPECT_EQ(highest_bit(1), 0u);
}

TEST(BitUtil, AlignUpDown) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_down(63, 64), 0u);
  EXPECT_EQ(align_down(130, 64), 128u);
}

TEST(BitUtil, Popcount) {
  EXPECT_EQ(popcount64(0), 0u);
  EXPECT_EQ(popcount64(0xFFFF), 16u);
  EXPECT_EQ(popcount64(~0ULL), 64u);
}

// -------------------------------------------------------------------- rng
TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsBounded) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversRange) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitMixExpandsSeeds) {
  SplitMix64 sm(0);
  const auto a = sm.next();
  const auto b = sm.next();
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0u);
}

// ------------------------------------------------------------ fixed_queue
TEST(FixedQueue, PushPopFifoOrder) {
  FixedQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) queue.push(i);
  EXPECT_TRUE(queue.full());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(queue.pop(), i);
  EXPECT_TRUE(queue.empty());
}

TEST(FixedQueue, TryPushRespectsCapacity) {
  FixedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));
  EXPECT_EQ(queue.size(), 2u);
}

TEST(FixedQueue, WrapsAround) {
  FixedQueue<int> queue(3);
  queue.push(1);
  queue.push(2);
  EXPECT_EQ(queue.pop(), 1);
  queue.push(3);
  queue.push(4);
  EXPECT_TRUE(queue.full());
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), 3);
  EXPECT_EQ(queue.pop(), 4);
}

TEST(FixedQueue, RandomAccessFromHead) {
  FixedQueue<int> queue(4);
  queue.push(10);
  queue.push(20);
  queue.push(30);
  (void)queue.pop();
  queue.push(40);
  EXPECT_EQ(queue.at(0), 20);
  EXPECT_EQ(queue.at(1), 30);
  EXPECT_EQ(queue.at(2), 40);
}

TEST(FixedQueue, ClearResets) {
  FixedQueue<int> queue(2);
  queue.push(1);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.free_slots(), 2u);
}

// ------------------------------------------------------------------ stats
TEST(RunningStat, TracksMoments) {
  RunningStat stat;
  stat.add(1.0);
  stat.add(2.0);
  stat.add(3.0);
  EXPECT_EQ(stat.count(), 3u);
  EXPECT_DOUBLE_EQ(stat.mean(), 2.0);
  EXPECT_DOUBLE_EQ(stat.min(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max(), 3.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.min(), 0.0);
}

TEST(RunningStat, MergeCombines) {
  RunningStat a;
  RunningStat b;
  a.add(1.0);
  a.add(5.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Histogram, BucketsByMagnitude) {
  Histogram hist;
  hist.add(0);
  hist.add(1);
  hist.add(1000);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.buckets()[0], 1u);  // zero
  EXPECT_EQ(hist.buckets()[1], 1u);  // 1
  EXPECT_EQ(hist.buckets()[10], 1u);  // 512..1023
}

TEST(Histogram, MergeCombinesCountsAndExtremes) {
  Histogram a;
  Histogram b;
  a.add(4);
  a.add(9);
  b.add(1);
  b.add(100);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min_value(), 1u);
  EXPECT_EQ(a.max_value(), 100u);
  EXPECT_EQ(a.quantile(0.0), 1u);
  EXPECT_EQ(a.quantile(1.0), 100u);
}

TEST(Histogram, MergeIntoEmptyCopiesAndMergingEmptyIsANoOp) {
  Histogram a;
  Histogram b;
  Histogram empty;
  b.add(7);
  a.merge(b);  // empty.merge(non-empty) adopts the extremes
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min_value(), 7u);
  EXPECT_EQ(a.max_value(), 7u);
  a.merge(empty);  // non-empty.merge(empty) changes nothing
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min_value(), 7u);
  EXPECT_EQ(a.max_value(), 7u);
}

TEST(Histogram, MergeFromWiderHistogramSaturatesTheLastBucket) {
  Histogram narrow(4);  // last bucket saturates at values >= 4
  Histogram wide(32);
  wide.add(1000);  // bucket 10 in the wide histogram
  narrow.merge(wide);
  EXPECT_EQ(narrow.count(), 1u);
  EXPECT_EQ(narrow.buckets().back(), 1u);  // folded where add() would land
  EXPECT_EQ(narrow.quantile(0.5), 1000u);  // edge clamped into [min, max]
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0u);

  Histogram one;  // a single sample answers every quantile exactly
  one.add(42);
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(one.quantile(q), 42u) << q;
  }

  Histogram hist;
  hist.add(2);
  hist.add(2);
  hist.add(2);
  hist.add(1'000'000);
  // Tiny q resolves to the first sample's bucket edge, never bucket 0
  // (the regression the rank-based formulation fixed).
  EXPECT_EQ(hist.quantile(0.01), 3u);  // bucket [2,3] upper edge
  EXPECT_EQ(hist.quantile(0.5), 3u);
  EXPECT_EQ(hist.quantile(1.0), 1'000'000u);
}

TEST(StatSet, SetGetAdd) {
  StatSet stats;
  stats.set("a", 1.0);
  stats.add("a", 2.0);
  EXPECT_DOUBLE_EQ(stats.get("a"), 3.0);
  EXPECT_DOUBLE_EQ(stats.get("missing"), 0.0);
  EXPECT_TRUE(stats.contains("a"));
  EXPECT_FALSE(stats.contains("missing"));
}

TEST(StatSet, RendersCsv) {
  StatSet stats;
  stats.set("x", 2.0);
  EXPECT_NE(stats.to_csv().find("x,2"), std::string::npos);
  EXPECT_NE(stats.to_string().find("x"), std::string::npos);
}

TEST(StatSet, JsonRoundTripsEveryValue) {
  StatSet stats;
  stats.set("alpha", 1.5);
  stats.set("big", 1234567890.0);
  stats.set("neg", -0.25);
  stats.set("zero", 0.0);
  const std::string json = stats.to_json();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key : {"alpha", "big", "neg", "zero"}) {
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = json.find(needle);
    ASSERT_NE(at, std::string::npos) << key << " in " << json;
    const double parsed =
        std::strtod(json.c_str() + at + needle.size(), nullptr);
    EXPECT_DOUBLE_EQ(parsed, stats.get(key)) << key;
  }
}

// ----------------------------------------------------------------- config
TEST(Config, DefaultsMatchTable1) {
  SimConfig config;
  EXPECT_EQ(config.cores, 8u);
  EXPECT_DOUBLE_EQ(config.cpu_ghz, 3.3);
  EXPECT_EQ(config.spm_bytes, 1u << 20);
  EXPECT_EQ(config.hmc_links, 4u);
  EXPECT_EQ(config.hmc_capacity, 8ull << 30);
  EXPECT_EQ(config.row_bytes, 256u);
  EXPECT_EQ(config.arq_entries, 32u);
  EXPECT_EQ(config.arq_entry_bytes, 64u);
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, DerivedQuantities) {
  SimConfig config;
  EXPECT_EQ(config.flits_per_row(), 16u);
  EXPECT_EQ(config.builder_groups(), 4u);
  EXPECT_EQ(config.flits_per_group(), 4u);
  EXPECT_EQ(config.total_banks(), 512u);
  // Sec. 5.3.3: (64 - 8 - 2) / 4.5 = 12 targets per 64 B entry.
  EXPECT_EQ(config.max_targets_per_entry(), 12u);
}

TEST(Config, NsCycleConversion) {
  SimConfig config;
  EXPECT_EQ(config.ns_to_cycles(93.0), 307u);  // Table 1 HMC latency
  EXPECT_NEAR(config.cycles_to_ns(307), 93.0, 0.1);
}

TEST(Config, ParseOverrides) {
  SimConfig config;
  config.parse_override_string("arq_entries=64,cores=4 cpu_ghz=2.0");
  EXPECT_EQ(config.arq_entries, 64u);
  EXPECT_EQ(config.cores, 4u);
  EXPECT_DOUBLE_EQ(config.cpu_ghz, 2.0);
}

TEST(Config, RowBytesOverrideSetsTheLargestPacket) {
  SimConfig config;
  config.parse_override_string("row_bytes=1024");
  EXPECT_EQ(config.row_bytes, 1024u);
  EXPECT_NO_THROW(config.validate());
  EXPECT_NE(config.to_table().find("64B - 1024B"), std::string::npos);
}

TEST(Config, KvRoundTripsEveryKey) {
  SimConfig config;
  config.parse_override_string(
      "cores=4,cpu_ghz=2.5,spm_latency_ns=0.5,nodes=2,open_page=true,"
      "policy=mshr,node_policies=1:raw,t_refi=12870,hmc_capacity=0x40000000");
  config.validate();
  const std::map<std::string, std::string> kv = config.to_kv();
  EXPECT_EQ(kv.size(), 36u);
  EXPECT_EQ(kv.count("mac_enabled"), 0u);
  EXPECT_EQ(kv.count("vault_queue_depth"), 0u);
  EXPECT_EQ(kv.at("hmc_capacity"), "1073741824");
  SimConfig copy;
  copy.parse_overrides(kv);
  EXPECT_EQ(copy.to_kv(), kv);
}

TEST(Config, OverridesAreParsedStrictly) {
  // Each of these used to be narrowed, wrapped or read as a prefix.
  for (const char* text :
       {"cores=4294967297", "arq_entries=-1", "cores=+4", "cores= 4",
        "cores=4x", "cores=", "cpu_ghz=nan", "cpu_ghz=inf", "cpu_ghz=1e999",
        "spm_bytes=-1", "row_bytes=100", "open_page=yes",
        "node_policies=70000:raw", "node_policies=:raw"}) {
    SimConfig config;
    EXPECT_THROW(config.parse_override_string(text), ConfigError) << text;
  }
}

TEST(Config, OverrideErrorsNameTheKeyAndRange) {
  SimConfig config;
  try {
    config.parse_override_string("cores=257");
    FAIL() << "cores=257 accepted";
  } catch (const ConfigError& error) {
    EXPECT_STREQ(error.what(), "cores=257: want an integer in [1, 256]");
  }
  config.cpu_ghz = -1.0;
  try {
    config.validate();
    FAIL() << "cpu_ghz=-1 accepted";
  } catch (const ConfigError& error) {
    EXPECT_STREQ(error.what(), "cpu_ghz=-1: want a number in (0, inf)");
  }
}

TEST(Config, CoresFitCoreId) {
  // CoreId is 8-bit: core 256 would wrap to core 0 and share its SPM.
  SimConfig config;
  config.cores = 256;
  EXPECT_NO_THROW(config.validate());
  config.cores = 257;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(Config, NodesFitNodeIdAndStayBelowTheSpmRegion) {
  SimConfig config;
  config.nodes = 65537;
  EXPECT_THROW(config.validate(), ConfigError);
  // 256 x 1 TB = 2^48 B ends exactly at the SPM region; 512 x 1 TB would
  // put main memory inside it.
  config.hmc_capacity = 1ull << 40;
  config.nodes = 256;
  EXPECT_NO_THROW(config.validate());
  config.nodes = 512;
  EXPECT_THROW(config.validate(), ConfigError);
  EXPECT_EQ(kSpmRegionBase, Address{1} << 48);
}

TEST(Config, TimesMustBeFinite) {
  SimConfig config;
  config.cpu_ghz = std::numeric_limits<double>::infinity();
  EXPECT_THROW(config.validate(), ConfigError);
  config.cpu_ghz = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), ConfigError);
  config = SimConfig{};
  config.spm_latency_ns = -5.0;
  EXPECT_THROW(config.validate(), ConfigError);
  config.spm_latency_ns = std::numeric_limits<double>::infinity();
  EXPECT_THROW(config.validate(), ConfigError);
  config.spm_latency_ns = 0.0;
  EXPECT_NO_THROW(config.validate());
}

TEST(ParseNumber, AcceptsOnlyWholeInRangeNumbers) {
  EXPECT_EQ(parse_number<std::uint32_t>("42"), 42u);
  EXPECT_EQ(parse_number<std::uint64_t>("0x10"), 16u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<double>("2.5e-1"), 0.25);
  for (const char* text : {"", " 1", "1 ", "+1", "-1", "1x", "0x", "abc",
                           "18446744073709551616"}) {
    EXPECT_FALSE(parse_number<std::uint64_t>(text)) << text;
  }
  EXPECT_FALSE(parse_number<std::uint32_t>("4294967296"));
  for (const char* text : {"nan", "inf", "-inf", "1e999", "1.0x", ""}) {
    EXPECT_FALSE(parse_number<double>(text)) << text;
  }
  EXPECT_FALSE(parse_number<std::uint32_t>("0", {1, 8}));
  EXPECT_FALSE(parse_number<std::uint32_t>("9", {1, 8}));
  EXPECT_EQ(parse_number<std::uint32_t>("8", {1, 8}), 8u);
  EXPECT_FALSE(parse_number<double>("0", kPositive<double>));
  EXPECT_EQ(parse_number<double>("0", kNonNegative<double>), 0.0);
  EXPECT_EQ(kPositive<double>.describe(), "a number in (0, inf)");
  EXPECT_EQ((NumberRange<std::uint32_t>{1, 256}.describe(true)),
            "a power of two in [1, 256]");
}

TEST(Config, RejectsUnknownKey) {
  SimConfig config;
  EXPECT_THROW(config.parse_override_string("bogus=1"), ConfigError);
}

TEST(Config, RejectsMalformedPair) {
  SimConfig config;
  EXPECT_THROW(config.parse_override_string("oops"), ConfigError);
  EXPECT_THROW(config.parse_override_string("=3"), ConfigError);
  EXPECT_THROW(config.parse_override_string("cores=abc"), ConfigError);
}

TEST(Config, ValidateCatchesBadGeometry) {
  SimConfig config;
  config.row_bytes = 100;  // not a power of two
  EXPECT_THROW(config.validate(), ConfigError);

  config = SimConfig{};
  config.vaults = 3;
  EXPECT_THROW(config.validate(), ConfigError);

  config = SimConfig{};
  config.hmc_links = 64;  // more links than vaults
  EXPECT_THROW(config.validate(), ConfigError);

  config = SimConfig{};
  config.builder_min_bytes = 24;
  EXPECT_THROW(config.validate(), ConfigError);

  config = SimConfig{};
  config.arq_entries = 1;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(Config, BankCountIsCappedJointly) {
  // The product of two 32-bit fields needs 64 bits; validate() caps it
  // at 65536 banks per cube.
  SimConfig config;
  config.vaults = 65536;
  config.banks_per_vault = 65536;
  EXPECT_EQ(config.total_banks(), std::uint64_t{1} << 32);
  EXPECT_THROW(config.validate(), ConfigError);

  config = SimConfig{};
  config.vaults = 64;
  config.banks_per_vault = 1024;  // 65536 banks: the cap
  EXPECT_NO_THROW(config.validate());
  config.banks_per_vault = 2048;  // the next power-of-two product
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(Config, TableRenderMentionsKeyParameters) {
  SimConfig config;
  const std::string table = config.to_table();
  EXPECT_NE(table.find("3.3 GHz"), std::string::npos);
  EXPECT_NE(table.find("32 entries"), std::string::npos);
  EXPECT_NE(table.find("256B-block"), std::string::npos);
}

// ---------------------------------------------------------- flat_cycle_map
TEST(FlatCycleMap, PutTakeRoundTrip) {
  FlatCycleMap map;
  EXPECT_TRUE(map.empty());
  map.put(request_key(3, 7), 100);
  map.put(request_key(3, 8), 200);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.take(request_key(3, 7), 0), 100u);
  EXPECT_EQ(map.take(request_key(3, 7), 55), 55u);  // already removed
  EXPECT_EQ(map.take(request_key(9, 9), 55), 55u);  // never inserted
  EXPECT_EQ(map.size(), 1u);
}

// Regression: put() must probe for the key before the load-factor check.
// The original order grew the table on every update once the map sat at
// the load-factor boundary — a spurious rehash per update, and the probe
// slot the update was standing on became stale.
TEST(FlatCycleMap, UpdateAtLoadFactorBoundaryDoesNotGrow) {
  FlatCycleMap map;
  // 12 distinct keys fill a 16-slot table right up to the 3/4 boundary:
  // one more *distinct* key must grow, but updates never may.
  for (std::uint64_t k = 0; k < 12; ++k) map.put(request_key(1, Tag(k)), k);
  ASSERT_EQ(map.capacity(), 16u);
  ASSERT_EQ(map.size(), 12u);
  for (std::uint64_t k = 0; k < 12; ++k) {
    map.put(request_key(1, Tag(k)), 1000 + k);  // in-place update
    EXPECT_EQ(map.capacity(), 16u) << "update of key " << k << " rehashed";
  }
  EXPECT_EQ(map.size(), 12u);
  for (std::uint64_t k = 0; k < 12; ++k) {
    EXPECT_EQ(map.take(request_key(1, Tag(k)), 0), 1000 + k);
  }
  // The 13th distinct key is the one that grows.
  for (std::uint64_t k = 0; k < 12; ++k) map.put(request_key(1, Tag(k)), k);
  map.put(request_key(2, 0), 99);
  EXPECT_EQ(map.capacity(), 32u);
  EXPECT_EQ(map.size(), 13u);
}

// ---------------------------------------------------------------- ring_queue
TEST(RingQueue, FifoOrderAcrossGrowth) {
  RingQueue<int> queue;
  for (int i = 0; i < 100; ++i) queue.push_back(i);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(queue.front(), i);
    EXPECT_EQ(queue.at(0), i);
    queue.pop_front();
  }
  EXPECT_TRUE(queue.empty());
}

TEST(RingQueue, GrowWithWrappedContentsKeepsOrder) {
  // Drive head_ past the middle of the ring, then force a grow() while
  // the live span wraps around the buffer end (head > tail internally).
  RingQueue<int> queue;
  for (int i = 0; i < 16; ++i) queue.push_back(i);     // fill to capacity
  for (int i = 0; i < 12; ++i) queue.pop_front();      // head_ = 12
  for (int i = 16; i < 28; ++i) queue.push_back(i);    // wraps, full again
  queue.push_back(28);                                 // grow() with wrap
  ASSERT_EQ(queue.size(), 17u);
  for (int i = 12; i <= 28; ++i) {
    EXPECT_EQ(queue.front(), i);
    queue.pop_front();
  }
}

// ------------------------------------------------------------- request_key
TEST(RequestKey, LanesNeverAlias) {
  // Each component owns a full 32-bit lane; the packed key must
  // round-trip both halves even at the extremes of their types. (The
  // 16-bit-shift pack this replaced aliased (tid, tag) pairs as soon as
  // a tag outgrew 16 bits.)
  const ThreadId tids[] = {0, 1, 0x7FFF, 0xFFFF};
  const Tag tags[] = {0, 1, 0x7FFF, 0xFFFF};
  std::set<std::uint64_t> seen;
  for (const ThreadId tid : tids) {
    for (const Tag tag : tags) {
      const std::uint64_t key = request_key(tid, tag);
      EXPECT_EQ(key >> 32, static_cast<std::uint64_t>(tid));
      EXPECT_EQ(key & 0xFFFFFFFFull, static_cast<std::uint64_t>(tag));
      EXPECT_TRUE(seen.insert(key).second)
          << "alias at tid=" << tid << " tag=" << tag;
    }
  }
  // Compile-time: the widest tag cannot spill into the tid lane.
  static_assert(request_key(0, 0xFFFF) != request_key(1, 0));
  static_assert(request_key(0xFFFF, 0xFFFF) == 0xFFFF0000FFFFull);
}

// --------------------------------------------------------- coalescer policy
TEST(CoalescerPolicyNames, RoundTripAndRejectUnknown) {
  for (const CoalescerPolicy policy :
       {CoalescerPolicy::kRaw, CoalescerPolicy::kMac, CoalescerPolicy::kMshr,
        CoalescerPolicy::kWarp}) {
    CoalescerPolicy parsed = CoalescerPolicy::kMac;
    EXPECT_TRUE(parse_policy(to_string(policy), parsed));
    EXPECT_EQ(parsed, policy);
  }
  CoalescerPolicy parsed = CoalescerPolicy::kMshr;
  EXPECT_FALSE(parse_policy("simd", parsed));
  EXPECT_EQ(parsed, CoalescerPolicy::kMshr);  // untouched on failure
}

TEST(Config, PolicyOverrideRoundTrip) {
  SimConfig config;
  EXPECT_EQ(config.policy, CoalescerPolicy::kMac);
  config.parse_override_string("policy=warp");
  EXPECT_EQ(config.policy, CoalescerPolicy::kWarp);
  // to_kv emits the policy as a quoted JSON string token (run reports
  // embed config values raw); parsing must accept its own output.
  EXPECT_EQ(config.to_kv().at("policy"), "\"warp\"");
  config.parse_override_string("policy=\"mshr\"");
  EXPECT_EQ(config.policy, CoalescerPolicy::kMshr);
  EXPECT_THROW(config.parse_override_string("policy=simd"), ConfigError);
  EXPECT_EQ(config.policy, CoalescerPolicy::kMshr);
}

TEST(Config, WarpKnobsValidate) {
  SimConfig config;
  config.policy = CoalescerPolicy::kWarp;
  config.validate();  // defaults are legal
  config.warp_lanes = 0;
  EXPECT_THROW(config.validate(), ConfigError);
  config.warp_lanes = 8;
  config.warp_block_bytes = 48;  // not a power of two
  EXPECT_THROW(config.validate(), ConfigError);
  config.warp_block_bytes = 512;  // beyond the 256 B packet ceiling
  EXPECT_THROW(config.validate(), ConfigError);
  config.warp_block_bytes = 64;
  config.warp_window_cycles = 0;
  EXPECT_THROW(config.validate(), ConfigError);
}

}  // namespace
}  // namespace mac3d
