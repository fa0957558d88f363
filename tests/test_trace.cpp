// Unit tests: trace container, FLIT splitting, gap accounting, binary IO,
// interleaving and the analyzer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "trace/address_space.hpp"
#include "trace/analyzer.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workload.hpp"

namespace mac3d {
namespace {

// ----------------------------------------------------------- MemoryTrace
TEST(MemoryTrace, RecordsPerThread) {
  MemoryTrace trace(2);
  trace.load(0, 0x100);
  trace.store(1, 0x200);
  trace.store(1, 0x300);
  EXPECT_EQ(trace.thread(0).size(), 1u);
  EXPECT_EQ(trace.thread(1).size(), 2u);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.thread(1)[0].op, MemOp::kStore);
}

TEST(MemoryTrace, SplitsFlitStraddlingAccess) {
  MemoryTrace trace(1);
  trace.load(0, 0x10C, 8);  // bytes 0x10C..0x113 straddle FLITs 0x10/0x11
  ASSERT_EQ(trace.thread(0).size(), 2u);
  EXPECT_EQ(trace.thread(0)[0].addr, 0x10Cu);
  EXPECT_EQ(trace.thread(0)[0].size, 4u);
  EXPECT_EQ(trace.thread(0)[1].addr, 0x110u);
  EXPECT_EQ(trace.thread(0)[1].size, 4u);
  EXPECT_EQ(trace.thread(0)[1].gap, 0u);  // same instruction
}

TEST(MemoryTrace, AlignedAccessNotSplit) {
  MemoryTrace trace(1);
  trace.load(0, 0x110, 8);
  trace.load(0, 0x118, 8);
  EXPECT_EQ(trace.thread(0).size(), 2u);
}

TEST(MemoryTrace, GapAccumulatesInstrAndSpm) {
  MemoryTrace trace(1);
  trace.instr(0, 5);
  trace.spm_load(0, 2);  // 2 * kSpmGapCycles
  trace.load(0, 0x100);
  EXPECT_EQ(trace.thread(0)[0].gap, 5u + 2 * kSpmGapCycles);
  trace.load(0, 0x200);
  EXPECT_EQ(trace.thread(0)[1].gap, 0u);  // gap was consumed
}

TEST(MemoryTrace, GapSaturatesAt16Bits) {
  MemoryTrace trace(1);
  trace.instr(0, 1 << 20);
  trace.load(0, 0x100);
  EXPECT_EQ(trace.thread(0)[0].gap, 0xFFFFu);
}

TEST(MemoryTrace, InstructionAndRefCounters) {
  MemoryTrace trace(2);
  trace.instr(0, 10);
  trace.load(0, 0x100);
  trace.spm_store(1, 3);
  trace.store(1, 0x200);
  trace.fence(1);
  EXPECT_EQ(trace.instructions(), 10u + 1 + 3 + 1 + 1);
  EXPECT_EQ(trace.main_memory_refs(), 2u);  // fence is not a data ref
  EXPECT_EQ(trace.spm_refs(), 3u);
  EXPECT_EQ(trace.memory_refs(), 5u);
  EXPECT_NEAR(trace.mem_access_rate(), 2.0 / 5.0, 1e-9);
  EXPECT_GT(trace.requests_per_instruction(), 0.0);
}

TEST(MemoryTrace, ClearResets) {
  MemoryTrace trace(1);
  trace.load(0, 0x100);
  trace.clear();
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.instructions(), 0u);
}

// ----------------------------------------------------------- trace file IO
TEST(TraceIo, RoundTripsExactly) {
  MemoryTrace trace(3);
  trace.instr(0, 4);
  trace.load(0, 0x1234, 8);
  trace.store(1, 0xABCD0, 4);
  trace.atomic(2, 0x8000, 8);
  trace.fence(2);

  const std::string path = "/tmp/mac3d_test_trace.bin";
  save_trace(trace, path);
  const MemoryTrace loaded = load_trace(path);
  ASSERT_EQ(loaded.threads(), 3u);
  for (std::uint32_t t = 0; t < 3; ++t) {
    const auto tid = static_cast<ThreadId>(t);
    ASSERT_EQ(loaded.thread(tid).size(), trace.thread(tid).size());
    for (std::size_t i = 0; i < trace.thread(tid).size(); ++i) {
      EXPECT_EQ(loaded.thread(tid)[i], trace.thread(tid)[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile) {
  EXPECT_THROW(load_trace("/tmp/definitely_not_there.bin"),
               std::runtime_error);
}

TEST(TraceIo, RejectsCorruptMagic) {
  const std::string path = "/tmp/mac3d_bad_trace.bin";
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("NOTATRACEFILE###", f);
  std::fclose(f);
  EXPECT_THROW(load_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

/// One on-disk v2 record: addr u64, op u8, size u8, gap u16, pad u32.
struct CraftedRecord {
  std::uint64_t addr = 0;
  MemOp op = MemOp::kLoad;
  std::uint8_t size = 8;
};

/// Writes a one-thread v2 trace file holding `records` under a per-thread
/// count of `count` (the record count unless given); returns its path.
std::string write_crafted(const std::string& name,
                          const std::vector<CraftedRecord>& records,
                          std::uint64_t count = ~std::uint64_t{0}) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto put = [&out](const auto& value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  out.write("MAC3DTRC", 8);
  put(std::uint32_t{2});  // version
  put(std::uint32_t{1});  // threads
  put(count == ~std::uint64_t{0} ? std::uint64_t{records.size()} : count);
  for (const CraftedRecord& record : records) {
    put(record.addr);
    put(static_cast<std::uint8_t>(record.op));
    put(record.size);
    put(std::uint16_t{0});  // gap
    put(std::uint32_t{0});  // pad
  }
  return path;
}

/// load_trace must refuse `path` with a runtime_error naming `why`.
void expect_rejected(const std::string& path, const std::string& why) {
  try {
    (void)load_trace(path);
    ADD_FAILURE() << path << " loaded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(why), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

// Records the model would misread are rejected, never split, so that a
// saved trace still loads back exactly.
TEST(TraceIo, RejectsRecordOfSizeZero) {
  expect_rejected(
      write_crafted("mac3d_size0.trace", {{0x1000, MemOp::kLoad, 0}}),
      "size 0");
}

TEST(TraceIo, RejectsRecordLargerThanAFlit) {
  expect_rejected(
      write_crafted("mac3d_size255.trace", {{0x1000, MemOp::kStore, 255}}),
      "larger than a FLIT");
}

TEST(TraceIo, RejectsRecordStraddlingAFlit) {
  expect_rejected(
      write_crafted("mac3d_straddle.trace", {{0x100F, MemOp::kLoad, 8}}),
      "straddles a FLIT");
}

TEST(TraceIo, RejectsCountLargerThanTheFile) {
  expect_rejected(write_crafted("mac3d_count.trace",
                                {{0x1000, MemOp::kLoad, 8}}, 1'000'000),
                  "claims 1000000 records");
}

TEST(TraceIo, AcceptsFencesAndFullFlitRecords) {
  const std::string path = write_crafted(
      "mac3d_valid.trace", {{0x1000, MemOp::kLoad, 16},
                            {0, MemOp::kFence, 0},
                            {0x100C, MemOp::kAtomic, 4}});
  const MemoryTrace loaded = load_trace(path);
  ASSERT_EQ(loaded.thread(0).size(), 3u);
  EXPECT_EQ(loaded.thread(0)[1].op, MemOp::kFence);
  std::remove(path.c_str());
}

TEST(TraceIo, GeneratedTraceRoundTrips) {
  WorkloadParams params;
  params.threads = 4;
  params.scale = 0.02;
  const MemoryTrace trace = find_workload("sg")->trace(params);
  ASSERT_GT(trace.size(), 0u);
  const std::string path =
      (std::filesystem::temp_directory_path() / "mac3d_sg.trace").string();
  save_trace(trace, path);
  const MemoryTrace loaded = load_trace(path);
  ASSERT_EQ(loaded.threads(), trace.threads());
  for (std::uint32_t t = 0; t < trace.threads(); ++t) {
    const auto tid = static_cast<ThreadId>(t);
    EXPECT_EQ(loaded.thread(tid), trace.thread(tid)) << "thread " << t;
  }
  std::remove(path.c_str());
}

TEST(TraceAddresses, RejectsAnAddressBeyondMainMemory) {
  MemoryTrace trace(2);
  trace.load(1, 0x1000, 8);
  trace.load(1, Address{1} << 62, 8);
  SimConfig config;
  for (const std::uint32_t nodes : {1u, 4u}) {
    config.nodes = nodes;
    try {
      check_trace_addresses(trace, config);
      FAIL() << "2^62 accepted at " << nodes << " nodes";
    } catch (const ConfigError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("thread 1, record 1"), std::string::npos) << what;
      EXPECT_NE(what.find("0x4000000000000000"), std::string::npos) << what;
    }
  }
}

TEST(TraceAddresses, AcceptsTheLastFlitAndExemptsFences) {
  SimConfig config;
  config.nodes = 4;
  const Address limit = Address{4} * config.hmc_capacity;
  MemoryTrace trace(1);
  trace.load(0, limit - kFlitBytes, kFlitBytes);
  trace.append(0, MemRecord{Address{1} << 62, MemOp::kFence, 0, 0});
  EXPECT_NO_THROW(check_trace_addresses(trace, config));
  trace.store(0, limit, 8);
  EXPECT_THROW(check_trace_addresses(trace, config), ConfigError);
  config.nodes = 1;  // the same FLIT lies on node 3, beyond one node
  MemoryTrace first(1);
  first.load(0, limit - kFlitBytes, kFlitBytes);
  EXPECT_THROW(check_trace_addresses(first, config), ConfigError);
}

// ------------------------------------------------------ InterleavedStream
TEST(InterleavedStream, RoundRobinsThreads) {
  MemoryTrace trace(2);
  trace.load(0, 0x000);
  trace.load(0, 0x010);
  trace.load(1, 0x100);
  InterleavedStream stream(trace, 2, 8);
  EXPECT_EQ(stream.remaining(), 3u);
  EXPECT_EQ(stream.next().tid, 0);
  EXPECT_EQ(stream.next().tid, 1);
  const RawRequest last = stream.next();
  EXPECT_EQ(last.tid, 0);
  EXPECT_EQ(last.addr, 0x010u);
  EXPECT_TRUE(stream.done());
}

TEST(InterleavedStream, AssignsPerThreadTags) {
  MemoryTrace trace(1);
  trace.load(0, 0x000);
  trace.load(0, 0x010);
  InterleavedStream stream(trace, 1, 8);
  EXPECT_EQ(stream.next().tag, 0u);
  EXPECT_EQ(stream.next().tag, 1u);
}

TEST(InterleavedStream, ResetRestarts) {
  MemoryTrace trace(1);
  trace.load(0, 0x000);
  InterleavedStream stream(trace, 1, 8);
  (void)stream.next();
  EXPECT_TRUE(stream.done());
  stream.reset();
  EXPECT_FALSE(stream.done());
  EXPECT_EQ(stream.next().tag, 0u);
}

// ------------------------------------------------------------ AddressSpace
TEST(AddressSpace, BumpAllocatesAligned) {
  AddressSpace space(1 << 20);
  const Address a = space.alloc(100, 64);
  const Address b = space.alloc(10, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_GE(space.used(), 110u);
}

TEST(AddressSpace, ThrowsWhenExhausted) {
  AddressSpace space(1024);
  (void)space.alloc(1024);
  EXPECT_THROW(space.alloc(1), std::runtime_error);
}

TEST(AddressSpace, RespectsBase) {
  AddressSpace space(1 << 20, 8ull << 30);
  EXPECT_GE(space.alloc(8), 8ull << 30);
}

// ----------------------------------------------------------------- analyzer
TEST(Analyzer, CountsOpsAndRows) {
  SimConfig config;
  MemoryTrace trace(2);
  trace.load(0, 0x000);
  trace.load(1, 0x010);   // same row
  trace.store(0, 0x100);  // second row
  trace.atomic(1, 0x208, 8);
  trace.fence(0);
  const TraceProfile profile = analyze(trace, config, 2);
  EXPECT_EQ(profile.records, 5u);
  EXPECT_EQ(profile.loads, 2u);
  EXPECT_EQ(profile.stores, 1u);
  EXPECT_EQ(profile.atomics, 1u);
  EXPECT_EQ(profile.fences, 1u);
  EXPECT_EQ(profile.distinct_rows, 2u);  // atomics are not coalescable
}

TEST(Analyzer, IdealCoalescingHighForSharedRow) {
  SimConfig config;
  MemoryTrace trace(8);
  for (std::uint32_t t = 0; t < 8; ++t) {
    trace.load(static_cast<ThreadId>(t), 0xA00 + t * 16);
  }
  const TraceProfile profile = analyze(trace, config, 8);
  EXPECT_NEAR(profile.ideal_coalescing, 1.0 - 1.0 / 8.0, 1e-9);
  EXPECT_NEAR(profile.mean_flits_per_group, 8.0, 1e-9);
}

TEST(Analyzer, IdealCoalescingZeroForDistinctRows) {
  SimConfig config;
  MemoryTrace trace(1);
  for (int i = 0; i < 16; ++i) {
    trace.load(0, static_cast<Address>(i) * 256);
  }
  const TraceProfile profile = analyze(trace, config, 1);
  EXPECT_DOUBLE_EQ(profile.ideal_coalescing, 0.0);
}

TEST(Analyzer, ReadFraction) {
  SimConfig config;
  MemoryTrace trace(1);
  trace.load(0, 0x0);
  trace.load(0, 0x1000);
  trace.store(0, 0x2000);
  trace.store(0, 0x3000);
  const TraceProfile profile = analyze(trace, config, 1);
  EXPECT_DOUBLE_EQ(profile.read_fraction, 0.5);
}

}  // namespace
}  // namespace mac3d
