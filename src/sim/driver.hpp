// The streaming simulation driver (the paper's methodology, Sec. 5.1): the
// interleaved multi-thread trace is fed into a memory path at its intake
// rate (with back-pressure), the path drives the HMC device model, and
// every paper metric is collected. run_policy is the one entry point; it
// runs one cycle loop (src/sim/driver.cpp), instantiated on the concrete
// MemoryPath adapter of the chosen policy (src/sim/memory_path.hpp).
//
// Four coalescer policies are available over identical traces
// (DESIGN.md §policy):
//   * MAC   — the paper's coalescer (MacCoalescer)
//   * raw   — one 16 B transaction per raw request ("without MAC")
//   * MSHR  — conventional fixed-64 B DMC baseline (Sec. 2.3)
//   * warp  — SIMT-style warp-iterative coalescer (WarpCoalescer)
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "trace/trace.hpp"

namespace mac3d {

class ActivityCensus;
class CheckContext;
class CycleSampler;
class EventSink;
class HostProfiler;
class SnapshotStreamer;

/// How the trace is fed into the memory path.
enum class FeedMode {
  /// Trace streaming — the paper's methodology (Sec. 5.1): the interleaved
  /// multi-thread memory instruction stream is presented to the memory
  /// interface at its intake rate, with back-pressure. This is the
  /// default for all figure benches.
  kStreaming,
  /// Execution-driven: threads stall on outstanding references
  /// (paper Sec. 3) with a small load window (2, hit-under-miss) and a
  /// 4-deep posted-store buffer, paying their recorded compute gaps; one
  /// request per core enters the path per cycle. Used by the feed-mode
  /// ablation and the full-system (arch/) examples.
  kClosedLoop,
  /// SIMT lane groups: threads are partitioned into consecutive groups of
  /// config.warp_lanes lanes; a group presents record `s` of all its
  /// lanes back-to-back (lane order) and advances to record `s+1` only
  /// when every lane's request completed — the lockstep issue pattern a
  /// warp scheduler produces, and the natural feed for the warp policy
  /// (any path accepts it).
  kLaneGroup,
};

/// Which execution engine steps the memory pipeline (docs/PARALLELISM.md).
/// Both produce bit-identical results — tests/test_parallel_equivalence.cpp
/// enforces it. Independent runs go parallel through `--jobs` (run_jobs,
/// src/sim/experiment.hpp), never inside one run.
enum class Engine {
  /// Strict cycle loop: ticks every component every cycle. The reference
  /// scheduler the differential suite compares the event engine against.
  kSerial,
  /// Event-driven fast-forward (the default): each unit's wake oracle
  /// (`next_event`) is the scheduling contract — the driver jumps the
  /// clock to the minimum wake cycle instead of ticking dead cycles,
  /// landing on every sampler and snapshot boundary so every export stays
  /// byte-identical to kSerial. The jump credits nothing: census slots
  /// count skipped cycles themselves.
  kEvent,
  /// perf/ only: it still names the retired event-parallel engine, which
  /// now runs kEvent. ROADMAP item 1 deletes it with perf's speedup rows.
  kEventParallel = kEvent,
};

struct DriveOptions {
  FeedMode mode = FeedMode::kStreaming;
  /// Execution engine for the run. Both engines produce bit-identical
  /// results (tests/test_parallel_equivalence.cpp); kEvent is the fast
  /// default.
  Engine engine = Engine::kEvent;
  /// perf/ only: nothing reads it. ROADMAP item 1 deletes it.
  std::uint32_t engine_threads = 0;
  /// Streaming feeder: per-thread MSHR-style tag pool size (simultaneously
  /// outstanding requests per thread). 0 = the full 2 B tag space, which
  /// reproduces the historical stall-on-busy-tag behavior; small pools
  /// model finite transaction-ID files (EXPERIMENTS.md measures the
  /// open-loop throughput effect). Ignored in closed-loop mode, whose
  /// load/store windows already bound outstanding tags.
  std::uint32_t tag_pool = 0;
  /// Model-invariant checking (docs/INVARIANTS.md): when non-null, the
  /// driver attaches the context to the device and the path, finalizes it
  /// after the run (while the pipeline is still alive) and reports the
  /// run's check/violation counts in the DriverResult. The context may be
  /// shared across runs; counters accumulate. In FailMode::kThrow the
  /// first breach raises InvariantViolation out of run_policy.
  CheckContext* checks = nullptr;
  /// Request-lifecycle telemetry (docs/OBSERVABILITY.md): when non-null,
  /// the driver attaches the sink to the path and stamps core_issue (at a
  /// record's first presentation attempt) and core_complete (at delivery)
  /// itself.
  EventSink* sink = nullptr;
  /// Periodic occupancy/utilization sampling: when non-null, the driver
  /// registers the path's probe set, samples every window boundary during
  /// the run (a mandatory landing cycle for the event engine) and flushes
  /// the tail at the makespan. The sampler may be shared across runs
  /// (rows are labeled with the path name).
  CycleSampler* sampler = nullptr;
  /// Idle-cycle census (docs/OBSERVABILITY.md §profiler): when non-null,
  /// the driver registers the run's components (node0.feeder, the path's
  /// units, the device's banks/vaults/links), marks the feeder on every
  /// accepted request and observes the census once per visited cycle at
  /// a serial point; the units' slots count their own busy cycles. The
  /// census may be shared across runs (counts accumulate); the serial
  /// point seals it before the pipeline dies.
  ActivityCensus* census = nullptr;
  /// Host wall-clock attribution: when non-null, the driver laps its
  /// tick / telemetry / sampler phases, which partition the feed loop's
  /// wall time. Host time never feeds back into simulated results.
  HostProfiler* profiler = nullptr;
  /// Windowed snapshot streaming (docs/OBSERVABILITY.md §streaming
  /// snapshots): when non-null, the driver opens a snapshot run named
  /// after the path, registers the reserved injected/completions counters
  /// plus byte counters and occupancy gauges, advances the streamer at
  /// every serial point, and makes every window boundary a mandatory
  /// landing cycle for the event engine (so the JSONL stream is
  /// byte-identical under both engines). If the streamer carries a
  /// StallWatchdog, the driver abandons the run the window it fires.
  SnapshotStreamer* snapshot = nullptr;
  /// Livelock fault injection (watchdog testing only): from this cycle on
  /// the driver stops draining completions, so accepted work stays in
  /// flight forever and the run can only end through a fired watchdog.
  /// 0 = disabled. Requires an attached snapshot streamer + watchdog.
  Cycle inject_livelock_at = 0;

  /// Any check or telemetry hook is attached. Each one captures per-run
  /// state, so runs sharing these options must go one at a time.
  [[nodiscard]] bool hooks_attached() const noexcept {
    return checks != nullptr || sink != nullptr || sampler != nullptr ||
           census != nullptr || profiler != nullptr || snapshot != nullptr;
  }
};

struct DriverResult {
  std::string path;                ///< "mac", "raw", "mshr" or "warp"
  Cycle makespan = 0;              ///< cycle the last completion arrived
  std::uint64_t raw_requests = 0;  ///< loads + stores + atomics fed in
  std::uint64_t packets = 0;       ///< HMC transactions dispatched
  std::uint64_t completions = 0;   ///< de-coalesced completions (+ fences)
  std::uint64_t bank_conflicts = 0;
  std::uint64_t refresh_stalls = 0;
  double row_hit_rate = 0.0;  ///< open-page mode only (page-policy ablation)
  std::uint64_t data_bytes = 0;    ///< payload moved on the links
  std::uint64_t link_bytes = 0;    ///< payload + control
  std::uint64_t overhead_bytes = 0;
  double avg_latency_cycles = 0.0;   ///< per raw request, accept -> complete
  double avg_packet_bytes = 0.0;
  /// Σ over HMC transactions of (response − submit) as measured inside
  /// the device model — the paper's Fig. 17 quantity.
  double device_latency_sum = 0.0;
  double device_latency_avg = 0.0;
  double avg_targets_per_entry = 0.0;  ///< MAC only (Fig. 15)
  double max_targets_per_entry = 0.0;  ///< MAC only
  std::map<std::uint32_t, std::uint64_t> packets_by_size;
  std::uint64_t checks_run = 0;        ///< invariant checks this run
  std::uint64_t check_violations = 0;  ///< breaches this run (0 = clean)

  /// Paper Sec. 5.3.1 (Eq. 3 as used in the text): request reduction.
  [[nodiscard]] double coalescing_efficiency() const noexcept {
    return raw_requests == 0 ? 0.0
                             : 1.0 - static_cast<double>(packets) /
                                         static_cast<double>(raw_requests);
  }
  /// Paper Eq. 1, measured over the whole run.
  [[nodiscard]] double bandwidth_efficiency() const noexcept {
    return link_bytes == 0 ? 0.0
                           : static_cast<double>(data_bytes) /
                                 static_cast<double>(link_bytes);
  }

  void collect(StatSet& out, const std::string& prefix) const;
};

/// Run the trace (its first `threads` streams) through the `policy` path:
/// the driver's only entry point. The MSHR path takes its geometry from
/// config.mshr_entries / config.mshr_block_bytes, the warp path from
/// config.warp_lanes / warp_block_bytes / warp_window_cycles.
[[nodiscard]] DriverResult run_policy(CoalescerPolicy policy,
                                      const MemoryTrace& trace,
                                      const SimConfig& config,
                                      std::uint32_t threads,
                                      const DriveOptions& options = {});

}  // namespace mac3d
