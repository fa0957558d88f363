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

std::size_t ActivityCensus::add_row(std::string name, const BusyUntil* slot) {
  rows_.push_back({std::move(name), slot, 0, 0, observed_cycles_});
  return rows_.size() - 1;
}

std::size_t ActivityCensus::add_component(std::string name, Probe probe) {
  const std::size_t row = add_row(std::move(name), nullptr);
  if (probe) probes_.emplace_back(row, std::move(probe));
  return row;
}

std::size_t ActivityCensus::add_threshold(std::string name,
                                          const BusyUntil* slot) {
  return add_row(std::move(name), slot);
}

void ActivityCensus::base_rows(std::size_t from, Cycle first) noexcept {
  for (std::size_t row = from; row < rows_.size(); ++row) {
    Entry& entry = rows_[row];
    if (entry.slot != nullptr) entry.base = entry.slot->active_before(first);
  }
}

std::uint64_t ActivityCensus::active(std::size_t row) const noexcept {
  const Entry& entry = rows_[row];
  if (entry.slot == nullptr || row >= unsettled_) return entry.active;
  return entry.slot->active_before(observed_cycles_) - entry.base;
}

void ActivityCensus::observe(Cycle now) {
  if (now < observed_cycles_) {
    // A run replaying cycles an earlier run of a shared census observed:
    // its rows count from the first cycle past them, net of what their
    // slots were raised to below it.
    base_rows(unsettled_, observed_cycles_);
    unseen_ = rows_.size();
    return;
  }
  base_rows(unseen_, now);
  unsettled_ = unseen_ = rows_.size();
  observed_cycles_ = now + 1;
  for (auto& [row, probe] : probes_) rows_[row].active += probe(now) ? 1 : 0;
}

void ActivityCensus::seal() {
  for (std::size_t row = 0; row < rows_.size(); ++row) {
    rows_[row].active = active(row);
    rows_[row].slot = nullptr;
  }
  probes_.clear();
}

std::vector<ActivityCensus::Row> ActivityCensus::rows() const {
  std::vector<Row> out;
  out.reserve(rows_.size());
  for (std::size_t row = 0; row < rows_.size(); ++row) {
    const std::uint64_t busy = active(row);
    out.push_back({rows_[row].name, busy,
                   observed_cycles_ - rows_[row].since - busy});
  }
  return out;
}

void ActivityCensus::export_metrics(StatSet& out) const {
  for (const Row& row : rows()) {
    out.set(row.name + ".active_cycles",
            static_cast<double>(row.active_cycles));
    out.set(row.name + ".idle_cycles", static_cast<double>(row.idle_cycles));
  }
}

double ActivityCensus::dead_time_fraction() const {
  std::uint64_t active = 0;
  std::uint64_t idle = 0;
  for (const Row& row : rows()) {
    active += row.active_cycles;
    idle += row.idle_cycles;
  }
  const std::uint64_t total = active + idle;
  return total == 0 ? 0.0
                    : static_cast<double>(idle) / static_cast<double>(total);
}

std::string ActivityCensus::to_table() const {
  std::size_t width = 9;  // "component"
  const std::vector<Row> rows = this->rows();
  for (const Row& row : rows) width = std::max(width, row.name.size());
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-*s %12s %12s %10s\n",
                static_cast<int>(width), "component", "active", "idle",
                "dead-time");
  out += line;
  for (const Row& row : rows) {
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
  for (const Row& row : rows()) {
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
