// Figure 1: cache miss-rate analysis (the paper's motivation study).
//
// Left side: miss rate of the irregular workloads through a conventional
// cache hierarchy (paper: 49.09% average, SG and HPCG above 50%).
// Right side: sequential (A[i] = B[i]) vs random (A[i] = B[C[i]]) SG
// miss rate as the dataset grows from 80 KB to 32 GB (paper: 2.36% vs
// 63.85% at 32 GB — over 20x).
#include <cstdio>

#include "bench_common.hpp"
#include "cache/cache.hpp"
#include "common/rng.hpp"

using namespace mac3d;

namespace {

CacheHierarchy make_hierarchy() {
  // A conventional high-performance processor stack: 32 KB L1 / 256 KB L2
  // per core plus a shared 8 MB LLC (per-core slice used here since the
  // trace is replayed thread-by-thread).
  return CacheHierarchy({
      CacheConfig{"L1", 32 * 1024, 64, 8, true},
      CacheConfig{"L2", 256 * 1024, 64, 8, true},
      CacheConfig{"LLC", 8 * 1024 * 1024, 64, 16, true},
  });
}

void left_side() {
  print_banner("Figure 1 (left): cache miss rate of irregular workloads");
  SuiteOptions options = default_suite_options();

  Table table({"workload", "accesses", "L1 miss", "overall miss (LLC->mem)"});
  double sum = 0.0;
  int count = 0;
  for (const Workload* workload : workload_registry()) {
    WorkloadParams params;
    params.threads = options.threads;
    params.scale = options.scale;
    params.config = options.config;
    const MemoryTrace trace = workload->trace(params);

    CacheHierarchy caches = make_hierarchy();
    for (std::uint32_t t = 0; t < trace.threads(); ++t) {
      for (const MemRecord& record : trace.thread(static_cast<ThreadId>(t))) {
        if (record.op == MemOp::kFence) continue;
        caches.access(record.addr, record.op == MemOp::kStore ||
                                       record.op == MemOp::kAtomic);
      }
    }
    const double l1 = caches.level(0).stats().miss_rate();
    const double overall = caches.overall_miss_rate();
    sum += l1;
    ++count;
    table.add_row({bench::label(workload->name()),
                   Table::count(caches.level(0).stats().accesses),
                   Table::pct(l1), Table::pct(overall)});
  }
  table.print();
  print_reference("average miss rate", "49.09%",
                  Table::pct(sum / count) + " (L1)");
}

void right_side() {
  print_banner(
      "Figure 1 (right): sequential vs random SG miss rate vs dataset size");
  // Address-stream sweep: the dataset need not be materialized — only the
  // access stream matters; 2M sampled accesses per size point.
  const std::uint64_t kSamples = 2'000'000;
  Table table({"dataset", "sequential miss", "random miss"});
  for (std::uint64_t bytes = 80ull * 1024; bytes <= 32ull << 30; bytes *= 8) {
    const std::uint64_t elems = bytes / 8;

    CacheHierarchy seq_caches = make_hierarchy();
    for (std::uint64_t i = 0; i < kSamples; ++i) {
      seq_caches.access((i % elems) * 8, false);         // B[i]
      seq_caches.access((32ull << 30) + (i % elems) * 8,  // A[i] =
                        true);
    }

    // "C[i] is a random positive integer smaller than the size of B":
    // the index is generated, so the kernel touches B (random) and A.
    CacheHierarchy rnd_caches = make_hierarchy();
    Xoshiro256 rng(7);
    for (std::uint64_t i = 0; i < kSamples; ++i) {
      rnd_caches.access(rng.below(elems) * 8, false);            // B[C[i]]
      rnd_caches.access((32ull << 30) + (i % elems) * 8, true);  // A[i]
    }

    table.add_row({Table::bytes(bytes),
                   Table::pct(seq_caches.level(0).stats().miss_rate()),
                   Table::pct(rnd_caches.level(0).stats().miss_rate())});
  }
  table.print();
  print_reference("random miss at 32 GB", "63.85%", "see last row");
  print_reference("sequential miss at 32 GB", "2.36%", "see last row");
}

}  // namespace

int bench_main(int argc, char** argv) {
  bench::Session session(argc, argv, "fig01_miss_rate");
  left_side();
  right_side();
  return session.finish();
}
