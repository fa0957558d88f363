#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace mac3d {

// The one sanctioned host-clock read in src/ (docs/STATIC_ANALYSIS.md:
// det.wall_clock exempts this file). Everything downstream consumes the
// returned seconds, never the clock itself.
double host_now_seconds() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

namespace {

/// The threshold of a row that is never busy (sealed or probe-less rows).
constexpr Cycle kNeverBusy = 0;

void book(ActivityCensus::Row& row, bool active) noexcept {
  const std::uint64_t hit = active ? 1 : 0;
  row.active_cycles += hit;
  row.idle_cycles += 1 - hit;
}

}  // namespace

std::size_t ActivityCensus::add_row(std::string name) {
  rows_.push_back({std::move(name), 0, 0});
  return rows_.size() - 1;
}

void ActivityCensus::add_idle_row(std::size_t row) {
  thresholds_.push_back({row, &kNeverBusy});
}

std::size_t ActivityCensus::add_component(std::string name, Probe probe) {
  const std::size_t row = add_row(std::move(name));
  if (probe) {
    probes_.push_back({row, std::move(probe)});
  } else {
    add_idle_row(row);
  }
  return row;
}

std::size_t ActivityCensus::add_threshold(std::string name,
                                          const Cycle* busy_until) {
  const std::size_t row = add_row(std::move(name));
  thresholds_.push_back({row, busy_until});
  return row;
}

void ActivityCensus::observe(Cycle now) {
  if (observed_any_ && now <= last_observed_) return;
  // Cycles the engine skipped (or never visited) are idle for everyone:
  // the driver only jumps over cycles where provably nothing happens.
  const std::uint64_t gap = observed_any_ ? now - last_observed_ - 1 : now;
  if (gap != 0) {
    for (Row& row : rows_) row.idle_cycles += gap;
  }
  Row* const rows = rows_.data();
  for (const ThresholdRow& entry : thresholds_) {
    book(rows[entry.row], now < *entry.busy_until);
  }
  for (const ProbeRow& entry : probes_) {
    book(rows[entry.row], entry.probe(now));
  }
  observed_cycles_ += gap + 1;
  last_observed_ = now;
  observed_any_ = true;
}

void ActivityCensus::skip_to(Cycle next) {
  // Span of cycles the engine is about to jump over, strictly before the
  // landing cycle `next` (which observe(next) will account after its
  // tick). Called before that tick, so thresholds read exactly as they
  // stood throughout the span: a threshold row is active on
  // [first, threshold) and every other row is idle.
  const Cycle first = observed_any_ ? last_observed_ + 1 : 0;
  if (next <= first) return;
  const std::uint64_t span = next - first;
  for (Row& row : rows_) row.idle_cycles += span;
  for (const ThresholdRow& entry : thresholds_) {
    const Cycle busy_until = *entry.busy_until;
    if (busy_until <= first) continue;
    const std::uint64_t active = std::min(busy_until, next) - first;
    rows_[entry.row].active_cycles += active;
    rows_[entry.row].idle_cycles -= active;
  }
  observed_cycles_ += span;
  last_observed_ = next - 1;
  observed_any_ = true;
}

void ActivityCensus::seal() {
  // Every row becomes a never-busy threshold row: counts stay, and no
  // reference into the probed components survives.
  thresholds_.clear();
  probes_.clear();
  for (std::size_t row = 0; row < rows_.size(); ++row) add_idle_row(row);
}

void ActivityCensus::export_metrics(StatSet& out) const {
  for (const Row& row : rows_) {
    out.set(row.name + ".active_cycles",
            static_cast<double>(row.active_cycles));
    out.set(row.name + ".idle_cycles", static_cast<double>(row.idle_cycles));
  }
}

double ActivityCensus::dead_time_fraction() const noexcept {
  std::uint64_t active = 0;
  std::uint64_t idle = 0;
  for (const Row& row : rows_) {
    active += row.active_cycles;
    idle += row.idle_cycles;
  }
  const std::uint64_t total = active + idle;
  return total == 0 ? 0.0
                    : static_cast<double>(idle) / static_cast<double>(total);
}

std::string ActivityCensus::to_table() const {
  std::size_t width = 9;  // "component"
  for (const Row& row : rows_) width = std::max(width, row.name.size());
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-*s %12s %12s %10s\n",
                static_cast<int>(width), "component", "active", "idle",
                "dead-time");
  out += line;
  for (const Row& row : rows_) {
    const std::uint64_t total = row.active_cycles + row.idle_cycles;
    const double dead =
        total == 0 ? 0.0
                   : static_cast<double>(row.idle_cycles) /
                         static_cast<double>(total);
    std::snprintf(line, sizeof(line), "%-*s %12llu %12llu %9.1f%%\n",
                  static_cast<int>(width), row.name.c_str(),
                  static_cast<unsigned long long>(row.active_cycles),
                  static_cast<unsigned long long>(row.idle_cycles),
                  100.0 * dead);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "%-*s %12llu cycles observed, %9.1f%% dead overall\n",
                static_cast<int>(width), "total",
                static_cast<unsigned long long>(observed_cycles_),
                100.0 * dead_time_fraction());
  out += line;
  return out;
}

std::string ActivityCensus::to_json() const {
  std::string out = "{";
  out += "\"observed_cycles\": " + json_number(observed_cycles_);
  out += ", \"dead_time_fraction\": " + json_number(dead_time_fraction());
  out += ", \"components\": {";
  bool first = true;
  for (const Row& row : rows_) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(row.name) + ": {\"active_cycles\": " +
           json_number(row.active_cycles) +
           ", \"idle_cycles\": " + json_number(row.idle_cycles) + "}";
  }
  out += "}}";
  return out;
}

std::string HostProfiler::to_json() const {
  std::string out = "{\"phase_seconds\": {";
  for (std::size_t i = 0; i < kHostPhaseCount; ++i) {
    if (i != 0) out += ", ";
    out += json_quote(to_string(static_cast<HostPhase>(i))) + ": " +
           json_number(phase_seconds_[i]);
  }
  out += "}}";
  return out;
}

std::string HostProfiler::to_table() const {
  std::string out;
  char line[160];
  double total = 0.0;
  for (const double seconds : phase_seconds_) total += seconds;
  for (std::size_t i = 0; i < kHostPhaseCount; ++i) {
    const double share =
        total <= 0.0 ? 0.0 : 100.0 * phase_seconds_[i] / total;
    std::snprintf(line, sizeof(line), "%-10s %10.6fs %6.1f%%\n",
                  std::string(to_string(static_cast<HostPhase>(i))).c_str(),
                  phase_seconds_[i], share);
    out += line;
  }
  return out;
}

}  // namespace mac3d
