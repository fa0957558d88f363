#include "obs/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "obs/profiler.hpp"

namespace mac3d {

namespace {

/// Shortest round-trip-ish float rendering, matching the sampler's CSV.
std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace

void StallWatchdog::observe_window(Cycle boundary,
                                   std::uint64_t completions_delta,
                                   std::uint64_t in_flight) {
  ++windows_observed_;
  if (fired_) return;
  if (completions_delta == 0 && in_flight > 0) {
    if (++stalled_windows_ >= threshold_) {
      fired_ = true;
      fired_at_ = boundary;
    }
  } else {
    stalled_windows_ = 0;
  }
}

std::string StallWatchdog::to_json() const {
  std::string out = "{\"fired\":";
  out += fired_ ? "true" : "false";
  if (fired_) {
    out += ",\"fired_at_cycle\":" + std::to_string(fired_at_);
  }
  out += ",\"stalled_windows\":" + std::to_string(stalled_windows_);
  out += ",\"threshold_windows\":" + std::to_string(threshold_);
  out += ",\"windows_observed\":" + std::to_string(windows_observed_);
  out += "}";
  return out;
}

void SnapshotStreamer::begin_run(std::string label) {
  if (!header_written_) {
    out_ += "{\"schema\":\"mac3d-snapshot/1\",\"period\":" +
            std::to_string(period_) + "}\n";
    header_written_ = true;
  }
  run_label_ = std::move(label);
  out_ += "{\"run\":" + json_quote(run_label_) + "}\n";
  counters_.clear();
  gauges_.clear();
  census_ = nullptr;
  census_last_.clear();
  injected_total_ = 0;
  completions_total_ = 0;
  run_windows_ = 0;
  next_boundary_ = period_;
  running_ = true;
}

void SnapshotStreamer::add_counter(std::string name, CounterProbe probe) {
  Counter entry{std::move(name), std::move(probe), 0};
  auto pos = std::lower_bound(
      counters_.begin(), counters_.end(), entry,
      [](const Counter& a, const Counter& b) { return a.name < b.name; });
  counters_.insert(pos, std::move(entry));
}

void SnapshotStreamer::add_gauge(std::string name, GaugeProbe probe) {
  Gauge entry{std::move(name), std::move(probe)};
  auto pos = std::lower_bound(
      gauges_.begin(), gauges_.end(), entry,
      [](const Gauge& a, const Gauge& b) { return a.name < b.name; });
  gauges_.insert(pos, std::move(entry));
}

void SnapshotStreamer::advance_to(Cycle now) {
  if (!running_) return;
  while (next_boundary_ <= now) {
    sample_boundary(next_boundary_);
    next_boundary_ += period_;
  }
}

void SnapshotStreamer::end_run(Cycle makespan) {
  if (!running_) return;
  // The tail: every window the run's span touches gets a row, the last
  // one sampled at the makespan itself (mirrors CycleSampler::end_run).
  while (next_boundary_ - period_ < makespan) {
    sample_boundary(std::min(next_boundary_, makespan));
    next_boundary_ += period_;
  }
  const std::uint64_t in_flight =
      injected_total_ > completions_total_
          ? injected_total_ - completions_total_
          : 0;
  out_ += "{\"end\":" + json_quote(run_label_) +
          ",\"cycle\":" + std::to_string(makespan) +
          ",\"windows\":" + std::to_string(run_windows_) +
          ",\"injected\":" + std::to_string(injected_total_) +
          ",\"completions\":" + std::to_string(completions_total_) +
          ",\"in_flight_at_end\":" + std::to_string(in_flight) + "}\n";
  abort_run();
}

void SnapshotStreamer::abort_run() noexcept {
  counters_.clear();
  gauges_.clear();
  census_ = nullptr;
  census_last_.clear();
  running_ = false;
}

void SnapshotStreamer::sample_boundary(Cycle boundary) {
  std::string line = "{\"cycle\":" + std::to_string(boundary);

  std::uint64_t completions_delta = 0;
  std::string counters_json;
  for (Counter& counter : counters_) {
    const std::uint64_t value = counter.probe();
    const std::uint64_t delta =
        value > counter.last ? value - counter.last : 0;
    counter.last = value;
    if (counter.name == kInjectedCounter) injected_total_ = value;
    if (counter.name == kCompletionsCounter) {
      completions_total_ = value;
      completions_delta = delta;
    }
    if (delta == 0) continue;  // delta encoding: quiet counters are omitted
    if (!counters_json.empty()) counters_json += ",";
    counters_json += json_quote(counter.name) + ":" + std::to_string(delta);
  }
  if (!counters_json.empty()) {
    line += ",\"counters\":{" + counters_json + "}";
  }

  const std::uint64_t in_flight =
      injected_total_ > completions_total_
          ? injected_total_ - completions_total_
          : 0;
  line += ",\"in_flight\":" + std::to_string(in_flight);

  if (!gauges_.empty()) {
    line += ",\"gauges\":{";
    bool first = true;
    for (const Gauge& gauge : gauges_) {
      if (!first) line += ",";
      first = false;
      line += json_quote(gauge.name) + ":" + format_double(gauge.probe());
    }
    line += "}";
  }

  if (census_ != nullptr) {
    const auto& rows = census_->rows();
    if (census_last_.size() < rows.size()) {
      census_last_.resize(rows.size(), 0);
    }
    std::string census_json;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::uint64_t active = rows[i].active_cycles;
      const std::uint64_t delta =
          active > census_last_[i] ? active - census_last_[i] : 0;
      census_last_[i] = active;
      if (delta == 0) continue;
      if (!census_json.empty()) census_json += ",";
      census_json += json_quote(rows[i].name) + ":" + std::to_string(delta);
    }
    if (!census_json.empty()) {
      line += ",\"census\":{" + census_json + "}";
    }
  }

  line += "}\n";
  out_ += line;
  ++windows_;
  ++run_windows_;

  if (watchdog_ != nullptr) {
    const bool was_fired = watchdog_->fired();
    watchdog_->observe_window(boundary, completions_delta, in_flight);
    if (!was_fired && watchdog_->fired()) {
      out_ += "{\"watchdog\":\"fired\",\"cycle\":" + std::to_string(boundary) +
              ",\"stalled_windows\":" +
              std::to_string(watchdog_->stalled_windows()) +
              ",\"threshold_windows\":" +
              std::to_string(watchdog_->threshold()) + "}\n";
    }
  }
}

void SnapshotStreamer::export_metrics(StatSet& out) const {
  out.set("window.count", static_cast<double>(windows_));
  out.set("window.period_cycles", static_cast<double>(period_));
  if (watchdog_ == nullptr) return;
  out.set("watchdog.fired", watchdog_->fired() ? 1.0 : 0.0);
  out.set("watchdog.stalled_windows",
          static_cast<double>(watchdog_->stalled_windows()));
  out.set("watchdog.threshold_windows",
          static_cast<double>(watchdog_->threshold()));
  out.set("watchdog.windows_observed",
          static_cast<double>(watchdog_->windows_observed()));
}

bool SnapshotStreamer::write(const std::string& file) const {
  std::ofstream out(file, std::ios::binary);
  if (!out) return false;
  out << out_;
  return static_cast<bool>(out);
}

}  // namespace mac3d
