// Simulator self-profiling (docs/OBSERVABILITY.md §profiler): the
// idle-cycle census over every tickable component and the host-side
// wall-clock attribution for engine phases.
//
// The census turns "most cycles are dead time" into per-component
// numbers. Every simulated unit registers a busy-until threshold that its
// own work raises, so a row costs one load and a compare at the serial
// point (the census owner observes once per visited cycle), and the
// serial and event engines produce byte-identical census exports.
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
#include <vector>

#include "common/types.hpp"

namespace mac3d {

class StatSet;

/// Monotonic host wall clock in seconds. This is the only sanctioned
/// clock read in src/ (defined in profiler.cpp; det.wall_clock exempts
/// that one file) — everything else must consume its result so host time
/// stays quarantined from simulated time.
[[nodiscard]] double host_now_seconds();

/// Idle-cycle census: accumulates per-component active/idle cycle counts.
///
/// Components register a row; the run owner calls observe(now) once per
/// simulated cycle at a serial point. A row is one of two kinds:
///  * a threshold row (add_threshold) points at a busy-until cycle and is
///    active iff now < *busy_until, one load and a compare. Every
///    simulated unit registers this kind: device state like "bank busy
///    until cycle c", and units that do work in a cycle, which store
///    `now + 1` into their slot (active exactly at the cycle they
///    worked, never across a skipped span);
///  * a probe row (add_component) asks a callback "active at `now`?" —
///    for callers outside the model only (tests, perf's visit counter).
/// Cycles the engine never visited (time skips) count as idle for probe
/// rows — the driver only skips cycles where provably no component does
/// work. Threshold state stays active during skipped spans even though
/// nothing ticks, and skip_to() credits those cycles exactly, so the
/// event engine's census stays byte-identical to the cycle engine's. The
/// engine must call skip_to(next) BEFORE ticking the landing cycle: the
/// landing tick can raise busy thresholds, which would falsely mark the
/// skipped span active.
class ActivityCensus {
 public:
  using Probe = std::function<bool(Cycle)>;

  struct Row {
    std::string name;
    std::uint64_t active_cycles = 0;
    std::uint64_t idle_cycles = 0;
  };

  /// Register a component under `name` with an explicit activity probe,
  /// called exactly once per visited cycle by observe() and never by
  /// skip_to(). Returns the component's census index.
  std::size_t add_component(std::string name, Probe probe);

  /// Register threshold-form state: active at `now` iff
  /// now < *busy_until. The threshold must never decrease while the run
  /// is observed and must be frozen across skipped spans (nothing ticks
  /// mid-skip); the pointee must outlive the run (seal() first).
  std::size_t add_threshold(std::string name, const Cycle* busy_until);

  /// Account one simulated cycle. Idempotent per cycle; a forward jump
  /// from the last observed cycle books the skipped cycles as idle for
  /// every component. Call only from serial points.
  void observe(Cycle now);

  /// Account the skipped span strictly before `next` (the event engine's
  /// landing cycle): every cycle after the last observed one and before
  /// `next` is active for a threshold row up to its threshold and idle
  /// for every other row. Must run before the landing cycle is ticked —
  /// thresholds are read as frozen during the skip. The landing cycle
  /// itself is then accounted by the usual observe(next).
  void skip_to(Cycle next);

  /// Drop every probe and threshold pointer, keeping the accumulated
  /// counts. Call before the probed components are destroyed (mirrors
  /// the sampler's probe hazard: rows reference components).
  void seal();

  /// Export `<name>.active_cycles` / `<name>.idle_cycles` into `out`.
  void export_metrics(StatSet& out) const;

  [[nodiscard]] const std::vector<Row>& rows() const noexcept {
    return rows_;
  }
  [[nodiscard]] std::uint64_t observed_cycles() const noexcept {
    return observed_cycles_;
  }
  /// Idle fraction across all components (1.0 = everything always idle;
  /// 0 observed cycles reports 0.0).
  [[nodiscard]] double dead_time_fraction() const noexcept;

  /// Aligned text table: component, active, idle, dead-time fraction.
  [[nodiscard]] std::string to_table() const;
  /// Deterministic JSON object {"<name>":{"active_cycles":..,
  /// "idle_cycles":..},...} in registration order plus a summary.
  [[nodiscard]] std::string to_json() const;

 private:
  struct ThresholdRow {
    std::size_t row;
    const Cycle* busy_until;
  };
  struct ProbeRow {
    std::size_t row;
    Probe probe;
  };

  std::size_t add_row(std::string name);
  /// Make row `row` permanently idle: a threshold row that is never busy.
  void add_idle_row(std::size_t row);

  // Every row is exactly one of: a threshold row or a probe row. The
  // kinds live in separate dense lists so observe() runs the threshold
  // rows as a tight load-compare loop.
  std::vector<Row> rows_;
  std::vector<ThresholdRow> thresholds_;
  std::vector<ProbeRow> probes_;
  bool observed_any_ = false;
  Cycle last_observed_ = 0;
  std::uint64_t observed_cycles_ = 0;
};

/// Engine phases the host profiler attributes wall-clock to.
enum class HostPhase : std::uint8_t {
  kTick = 0,    ///< feed intake, component tick, completion drain,
                ///< drain check and wake-up oracle
  kTelemetry,   ///< census observe / skip credit
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
