// CycleSampler: a periodic probe registry. Drivers register named probes
// (ARQ occupancy, queue depths, bank busy fraction, link utilization) at
// the start of a run; the sampler evaluates them once per period boundary
// and accumulates a CSV time series, one row per elapsed window:
// rows == ceil(makespan / period). Boundaries are mandatory landing
// cycles for the event engine (next_boundary), as snapshot boundaries
// are, so both engines sample every boundary at the cycle itself.
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

class CycleSampler {
 public:
  /// Probes receive the sampled boundary cycle (so time-dependent gauges
  /// like "is this bank busy at cycle c" can be evaluated exactly).
  using Probe = std::function<double(Cycle)>;

  explicit CycleSampler(Cycle period) : period_(period == 0 ? 1 : period) {}

  /// Open a sampling window for one path run. Clears the probe registry —
  /// probes capture references to path/device objects, so they must not
  /// outlive the run they were registered for.
  void begin_run(std::string path_name);

  /// Register a probe. The first run fixes the column set; later runs must
  /// register the same columns (drivers register a uniform set per path).
  void add_probe(std::string name, Probe probe);

  /// First unsampled boundary strictly after `now` — the event engine's
  /// mandatory landing cycle (clamp the fast-forward target to this so a
  /// boundary never falls inside a skipped span).
  [[nodiscard]] Cycle next_boundary(Cycle now) const noexcept {
    return next_boundary_ > now ? next_boundary_ : now + 1;
  }

  /// Evaluate all window boundaries <= now (call once per serial point;
  /// boundaries are sampled at most once each).
  void advance_to(Cycle now);

  /// Flush the windows the run's tail spans (the last row is sampled at
  /// `makespan` itself) and drop the probes.
  void end_run(Cycle makespan);

  /// Drop the probes without flushing (exception unwind path: the probed
  /// objects are about to die).
  void abort_run() noexcept;

  [[nodiscard]] Cycle period() const noexcept { return period_; }
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  /// Rows belonging to one path's run.
  [[nodiscard]] std::size_t rows_for(std::string_view path) const noexcept;

  /// Render "path,cycle,<columns...>" CSV (header + one line per row).
  [[nodiscard]] std::string to_csv() const;
  bool write_csv(const std::string& file) const;

 private:
  void sample_boundary(Cycle boundary);

  Cycle period_;
  Cycle next_boundary_ = 0;
  bool running_ = false;
  std::string run_name_;
  std::vector<std::pair<std::string, Probe>> probes_;
  std::vector<std::string> columns_;

  struct Row {
    std::string path;
    Cycle cycle = 0;
    std::vector<double> values;
  };
  std::vector<Row> rows_;
};

}  // namespace mac3d
