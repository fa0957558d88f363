// Bench-side copies of the simulator's run loops, for per-layer host-time
// attribution from outside the program (perf/README.md, "How layers are
// measured").
//
// The copies reproduce src/sim/driver.cpp's run_streaming and
// run_lane_group (event engine, over make_memory_path()) and
// src/arch/system.cpp's System::run / run_event, all without telemetry.
// Every call into a layer — the feeder's own bookkeeping, MemoryPath
// try_accept / tick / drain, the event oracle, Node::tick, the drain check
// — is wrapped in a span on bursts of kSampleBurst visited cycles, one
// cycle in kSampleEvery overall; the sums are scaled up by visited /
// sampled. A copy's spans count only after the caller has checked that the
// copy reproduces the real run exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/driver.hpp"
#include "workloads.hpp"

namespace perf {

inline constexpr std::uint64_t kSampleEvery = 64;
inline constexpr std::uint64_t kSampleBurst = 32;
/// Longest span recorded as is; longer ones are cut to it (a host stall).
inline constexpr double kMaxSpanS = 100e-6;

/// Host seconds per layer (self time, scaled to every visited cycle) plus
/// exact work counts. Fields of the layers a loop does not contain stay 0.
struct Attribution {
  // src/sim feed loops and the workload's MemoryPath.
  double feed_s = 0.0;        ///< intake scan + completion bookkeeping
  double try_accept_s = 0.0;  ///< MemoryPath::try_accept
  double tick_s = 0.0;        ///< MemoryPath::tick (device time included)
  double drain_s = 0.0;       ///< MemoryPath::drain (device time included)
  double sim_oracle_s = 0.0;  ///< arrival/gate scan + next_event
  std::uint64_t presented = 0;  ///< try_accept calls
  std::uint64_t accepted = 0;
  std::uint64_t empty_drains = 0;  ///< of one tick + drain per visited cycle
  // src/arch System loop.
  double node_tick_s = 0.0;    ///< Σ Node::tick
  double arch_oracle_s = 0.0;  ///< Σ next_activity_cycle + next_delivery
  double drain_check_s = 0.0;  ///< fabric idle + Node::drained sweep
  std::vector<double> node_tick_by_node_s;
  std::uint64_t node_ticks = 0;
  std::uint64_t fabric_messages = 0;
  /// The traced loop's own host time less what its spans cost it: the
  /// untraced loop time, measured in the same run as the layers.
  double loop_s = 0.0;
  std::uint64_t clipped_spans = 0;  ///< sampled spans cut to kMaxSpanS

  [[nodiscard]] double attributed_s() const noexcept {
    return feed_s + try_accept_s + tick_s + drain_s + sim_oracle_s +
           node_tick_s + arch_oracle_s + drain_check_s;
  }
  /// max / mean of per-node tick time (0 without nodes).
  [[nodiscard]] double node_imbalance() const noexcept;
  void add(const Attribution& other);
};

struct CopyResult {
  Fingerprint fp;  ///< stream copies leave stats_fnv 0 (no DriverResult)
  std::uint64_t visited = 0;
  double seconds = 0.0;
  Attribution layers;  ///< all zero when untraced
};

/// The span clock's scale and the host cost of an empty span (two clock
/// reads plus bookkeeping), in seconds.
struct SpanCost {
  double seconds_per_tick = 0.0;
  double inside = 0.0;  ///< part of it inside the span's own interval
  double whole = 0.0;   ///< all of it, as a parent span sees a child
};

/// Measures SpanCost on this host in a tight loop. A traced loop measures
/// the read cost again in place and uses that; the calibration supplies
/// the tick scale and the bookkeeping beyond the two reads.
[[nodiscard]] SpanCost calibrate_span_cost();

/// Copy of the workload's feed loop (streaming or lane-group, event
/// engine) for one kernel.
[[nodiscard]] CopyResult stream_copy(const Inputs& inputs, const Kernel& kernel,
                                     bool traced, SpanCost cost);

/// Copy of System::run (engine kSerial) or System::run_event (kEvent) for
/// one kernel.
[[nodiscard]] CopyResult system_copy(const Inputs& inputs, const Kernel& kernel,
                                     mac3d::Engine engine, bool traced,
                                     SpanCost cost);

}  // namespace perf
