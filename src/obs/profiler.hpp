// Simulator self-profiling (docs/OBSERVABILITY.md §profiler): the
// idle-cycle census over every tickable component and the host-side
// wall-clock attribution for engine phases.
//
// The census turns "most cycles are dead time" into per-component
// numbers. Every simulated unit keeps a BusyUntil slot that counts its
// own busy cycles as the unit raises it, so the census reads slots when
// asked instead of walking them per cycle, and the serial and event
// engines produce byte-identical census exports.
//
// Host-time measurements (HostProfiler) are wall-clock and therefore
// nondeterministic by nature; they are quarantined in the report's
// `host` section, which report-diff skips by name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace mac3d {

class StatSet;

/// Monotonic host wall clock in seconds. This is the only sanctioned
/// clock read in src/ (defined in profiler.cpp; det.wall_clock exempts
/// that one file) — everything else must consume its result so host time
/// stays quarantined from simulated time.
[[nodiscard]] double host_now_seconds();

/// Idle-cycle census: per-component active/idle cycle counts.
///
/// Components register a row; the run owner calls observe(now) once per
/// visited cycle at a serial point. A row is one of two kinds:
///  * a threshold row (add_threshold) reads a unit's BusyUntil slot.
///    Every simulated unit registers this kind: device state like "bank
///    busy until cycle c", and units that do work in a cycle, which call
///    `work(now)` (active exactly at the cycles they worked). The slot
///    counts its own busy cycles, including those in spans the event
///    engine jumps over, so observe() never touches these rows;
///  * a probe row (add_component) asks a callback "active at `now`?" once
///    per visited cycle — for callers outside the model only (tests,
///    perf's visit counter). Cycles never visited count as idle.
/// A row counts from its first observed cycle; its idle count is the
/// cycles observed since it registered, less its active ones.
class ActivityCensus {
 public:
  using Probe = std::function<bool(Cycle)>;

  struct Row {
    std::string name;
    std::uint64_t active_cycles = 0;
    std::uint64_t idle_cycles = 0;
  };

  /// Register a component under `name` with an explicit activity probe,
  /// called exactly once per visited cycle by observe(). Returns the
  /// component's census index.
  std::size_t add_component(std::string name, Probe probe);

  /// Register a unit's busy-until slot. Its raises must come at the
  /// cycles the run ticks; the slot must outlive the run (seal() first).
  std::size_t add_threshold(std::string name, const BusyUntil* slot);

  /// Account one visited cycle: advance the clock and run the probe rows.
  /// Idempotent per cycle; a forward jump needs nothing else. A cycle at
  /// or before the last observed one changes no count: a census shared
  /// across runs counts each later run only past the cycles already
  /// observed. Call only from serial points, after the cycle's tick.
  void observe(Cycle now);

  /// Freeze every row's counts and drop every probe and slot pointer.
  /// Call before the registered components are destroyed (rows reference
  /// them). Idempotent; later observes count as idle for these rows.
  void seal();

  /// Export `<name>.active_cycles` / `<name>.idle_cycles` into `out`.
  void export_metrics(StatSet& out) const;

  /// Every row's counts through the last observed cycle, in registration
  /// order.
  [[nodiscard]] std::vector<Row> rows() const;
  [[nodiscard]] std::uint64_t observed_cycles() const noexcept {
    return observed_cycles_;
  }
  /// Idle fraction across all components (1.0 = everything always idle;
  /// 0 observed cycles reports 0.0).
  [[nodiscard]] double dead_time_fraction() const;

  /// Aligned text table: component, active, idle, dead-time fraction.
  [[nodiscard]] std::string to_table() const;
  /// Deterministic JSON object {"<name>":{"active_cycles":..,
  /// "idle_cycles":..},...} in registration order plus a summary.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    const BusyUntil* slot = nullptr;  ///< threshold rows, until sealed
    std::uint64_t base = 0;    ///< the slot's count before the first cycle
    std::uint64_t active = 0;  ///< a probe row's count, a sealed row's total
    std::uint64_t since = 0;   ///< observed cycles when the row registered
  };

  std::size_t add_row(std::string name, const BusyUntil* slot);
  [[nodiscard]] std::uint64_t active(std::size_t row) const noexcept;
  /// Set the base of the threshold rows from `from` on: their count
  /// starts at cycle `first`.
  void base_rows(std::size_t from, Cycle first) noexcept;

  std::vector<Entry> rows_;
  std::vector<std::pair<std::size_t, Probe>> probes_;
  /// Rows from here on have seen no observe that advanced the clock, and
  /// rows from `unseen_` on no observe at all.
  std::size_t unsettled_ = 0;
  std::size_t unseen_ = 0;
  std::uint64_t observed_cycles_ = 0;  ///< the last observed cycle + 1
};

/// Engine phases the host profiler attributes wall-clock to.
enum class HostPhase : std::uint8_t {
  kTick = 0,    ///< feed intake, component tick, completion drain,
                ///< drain check and wake-up oracle
  kTelemetry,   ///< census observe
  kSampler,     ///< cycle-sampler and snapshot probe evaluation
};

inline constexpr std::size_t kHostPhaseCount = 3;

[[nodiscard]] constexpr std::string_view to_string(HostPhase phase) noexcept {
  switch (phase) {
    case HostPhase::kTick: return "tick";
    case HostPhase::kTelemetry: return "telemetry";
    case HostPhase::kSampler: return "sampler";
  }
  return "?";
}

/// Wall-clock attribution for a run: per-phase totals. All values are
/// host seconds and live only in the non-diffed `host` report section.
///
/// Phases are timed with a lap clock: a run loop calls start_laps() once,
/// then lap(phase) at each phase boundary, which attributes the wall time
/// since the previous lap to `phase` — one clock read per boundary, and
/// the phases partition the loop's wall time.
class HostProfiler {
 public:
  using Clock = double (*)();

  /// `clock` returns monotonic seconds; tests inject a counting fake.
  explicit HostProfiler(Clock clock = host_now_seconds) noexcept
      : clock_(clock) {}

  /// Open a lap sequence: the next lap() measures from here.
  void start_laps() noexcept { lap_start_ = clock_(); }
  /// Attribute the wall time since the previous lap (or start_laps) to
  /// `phase`.
  void lap(HostPhase phase) noexcept {
    const double now = clock_();
    phase_seconds_[static_cast<std::size_t>(phase)] += now - lap_start_;
    lap_start_ = now;
  }

  [[nodiscard]] double phase_seconds(HostPhase phase) const noexcept {
    return phase_seconds_[static_cast<std::size_t>(phase)];
  }

  /// JSON object for the report's `host` section:
  /// {"phase_seconds":{"tick":T,"telemetry":T,"sampler":T}}.
  [[nodiscard]] std::string to_json() const;
  /// Aligned text table of the same numbers.
  [[nodiscard]] std::string to_table() const;

 private:
  Clock clock_;
  double lap_start_ = 0.0;
  double phase_seconds_[kHostPhaseCount] = {};
};

/// Run-loop helpers: a null profiler reads no clock at all, so an
/// unprofiled run never touches the host clock on the hot path.
inline void start_laps(HostProfiler* profiler) noexcept {
  if (profiler != nullptr) profiler->start_laps();
}
inline void lap(HostProfiler* profiler, HostPhase phase) noexcept {
  if (profiler != nullptr) profiler->lap(phase);
}

}  // namespace mac3d
