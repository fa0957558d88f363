#include "obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/json.hpp"

namespace mac3d {
namespace {

constexpr std::string_view kStreamSchema = "mac3d-snapshot/1";

/// Report numbers are doubles; snapshot totals are integers. Integral
/// report values round-trip exactly, so half-a-count slack is enough.
[[nodiscard]] bool same_count(double report_value, std::uint64_t total) {
  return std::fabs(report_value - static_cast<double>(total)) < 0.5;
}

[[nodiscard]] std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

/// Pull every `prefix.<rest>` numeric leaf of a flattened line into a
/// name -> value map, stripping the prefix; false at the first leaf that
/// `convert(path, number, value)` rejects. Census component names keep
/// their internal dots ("census.node0.router" -> "node0.router").
template <typename Value, typename Convert>
bool collect_prefixed(const FlatReport& line, const std::string& prefix,
                      std::map<std::string, Value>& out, Convert convert) {
  const std::string start = prefix + ".";
  for (auto it = line.numbers.lower_bound(start);
       it != line.numbers.end() && it->first.compare(0, start.size(),
                                                     start) == 0;
       ++it) {
    if (!convert(it->first, it->second,
                 out[it->first.substr(start.size())])) {
      return false;
    }
  }
  return true;
}

[[nodiscard]] const double* find_number(const FlatReport& report,
                                        const std::string& path) {
  const auto it = report.numbers.find(path);
  return it == report.numbers.end() ? nullptr : &it->second;
}

/// The report's injected/completed totals for run `label`. Two shapes:
/// a driver path carries its own raw_requests/completions stats; a
/// system report aggregates per node (core_requests/completions).
/// Driver raw_requests excludes fences while the stream's injected
/// counter folds them in (they retire like requests), so only the
/// completions total is comparable there (`has_injected` false).
struct ReportTotals {
  bool found = false;
  bool has_injected = false;
  double injected = 0.0;
  double completions = 0.0;
};

[[nodiscard]] ReportTotals report_totals(const FlatReport& report,
                                         const std::string& label) {
  ReportTotals totals;
  const std::string stats = "paths." + label + ".stats.";
  const double* completions = find_number(report, stats + label +
                                          ".completions");
  if (completions != nullptr) {
    totals.found = true;
    totals.completions = *completions;
    return totals;
  }
  for (std::uint64_t i = 0;; ++i) {
    const std::string node = stats + "node" + std::to_string(i);
    const double* requests = find_number(report, node + ".core_requests");
    const double* delivered = find_number(report, node + ".completions");
    if (requests == nullptr || delivered == nullptr) break;
    totals.found = true;
    totals.has_injected = true;
    totals.injected += *requests;
    totals.completions += *delivered;
  }
  return totals;
}

[[nodiscard]] const double* report_latency(const FlatReport& report,
                                           const std::string& label) {
  const double* latency = find_number(
      report, "paths." + label + ".stats." + label + ".avg_latency_cycles");
  if (latency != nullptr) return latency;
  return find_number(report, "metrics.system.avg_request_latency_cycles");
}

}  // namespace

bool parse_snapshot_stream(const std::string& text, SnapshotStream& out,
                           std::string& error) {
  out = SnapshotStream{};
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;
  SnapshotRun* run = nullptr;
  const auto fail = [&](const std::string& what) {
    error = "snapshot line " + std::to_string(line_no) + ": " + what;
    return false;
  };
  // Every count in the stream is a whole number a double holds exactly.
  const auto count = [&](const std::string& field, double value,
                         std::uint64_t& out_count) {
    return json_count(value, out_count) ||
           fail("\"" + field + "\" is not a whole number in [0, 2^53]: " +
                format_double(value));
  };
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty()) continue;
    FlatReport flat;
    std::string parse_error;
    if (!flatten_json(line, flat, parse_error)) return fail(parse_error);

    if (const auto schema = flat.strings.find("schema");
        schema != flat.strings.end()) {
      if (schema->second != kStreamSchema) {
        return fail("unsupported stream schema \"" + schema->second + "\"");
      }
      const double* period = find_number(flat, "period");
      if (period == nullptr) return fail("header has no positive \"period\"");
      if (!count("period", *period, out.period)) return false;
      if (out.period == 0) return fail("header has no positive \"period\"");
      header_seen = true;
      continue;
    }
    if (!header_seen) return fail("expected mac3d-snapshot/1 header first");

    if (const auto marker = flat.strings.find("run");
        marker != flat.strings.end()) {
      out.runs.emplace_back();
      run = &out.runs.back();
      run->label = marker->second;
      continue;
    }
    if (run == nullptr) return fail("line outside any run");

    if (flat.strings.count("watchdog") != 0) {
      run->watchdog_fired = true;
      const std::pair<const char*, std::uint64_t*> fields[] = {
          {"cycle", &run->watchdog_cycle},
          {"stalled_windows", &run->watchdog_stalled},
          {"threshold_windows", &run->watchdog_threshold}};
      for (const auto& [field, out_count] : fields) {
        const double* value = find_number(flat, field);
        if (value != nullptr && !count(field, *value, *out_count)) {
          return false;
        }
      }
      continue;
    }
    if (flat.strings.count("end") != 0) {
      const double* cycle = find_number(flat, "cycle");
      const double* windows = find_number(flat, "windows");
      const double* injected = find_number(flat, "injected");
      const double* completions = find_number(flat, "completions");
      const double* in_flight = find_number(flat, "in_flight_at_end");
      if (cycle == nullptr || windows == nullptr || injected == nullptr ||
          completions == nullptr || in_flight == nullptr) {
        return fail("footer missing a required field");
      }
      run->has_footer = true;
      if (!count("cycle", *cycle, run->end_cycle) ||
          !count("windows", *windows, run->footer_windows) ||
          !count("injected", *injected, run->injected) ||
          !count("completions", *completions, run->completions) ||
          !count("in_flight_at_end", *in_flight, run->in_flight_at_end)) {
        return false;
      }
      run = nullptr;  // further windows need a fresh "run" marker
      continue;
    }

    const double* cycle = find_number(flat, "cycle");
    const double* in_flight = find_number(flat, "in_flight");
    if (cycle == nullptr || in_flight == nullptr) {
      return fail("unrecognized line");
    }
    SnapshotWindowRow row;
    if (!count("cycle", *cycle, row.cycle) ||
        !count("in_flight", *in_flight, row.in_flight) ||
        !collect_prefixed(flat, "counters", row.counters, count) ||
        !collect_prefixed(flat, "census", row.census, count)) {
      return false;
    }
    collect_prefixed(flat, "gauges", row.gauges,
                     [](const std::string&, double value, double& gauge) {
                       gauge = value;
                       return true;
                     });
    run->windows.push_back(std::move(row));
  }
  if (!header_seen) {
    error = "snapshot stream is empty (no header)";
    return false;
  }
  return true;
}

bool load_snapshot_stream(const std::string& file, SnapshotStream& out,
                          std::string& error) {
  std::ifstream in(file, std::ios::binary);
  if (!in.is_open()) {
    error = "cannot open " + file;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!parse_snapshot_stream(text.str(), out, error)) {
    error = file + ": " + error;
    return false;
  }
  return true;
}

AnalysisResult analyze_stream(const FlatReport& report,
                              const SnapshotStream& stream,
                              const AnalysisOptions& options) {
  AnalysisResult result;
  for (const SnapshotRun& run : stream.runs) {
    RunAnalysis ra;
    ra.label = run.label;
    ra.watchdog_fired = run.watchdog_fired;
    ra.watchdog_cycle = run.watchdog_cycle;
    ra.end_cycle = run.has_footer
                       ? run.end_cycle
                       : (run.windows.empty() ? 0 : run.windows.back().cycle);

    Cycle prev = 0;
    std::uint64_t sum_injected = 0;
    std::uint64_t sum_completions = 0;
    double sum_in_flight = 0.0;
    std::map<std::string, std::size_t> critical_counts;
    for (const SnapshotWindowRow& row : run.windows) {
      WindowDiagnosis w;
      w.cycle = row.cycle;
      w.span = row.cycle > prev ? row.cycle - prev : 0;
      prev = row.cycle;
      if (const auto it = row.counters.find("injected");
          it != row.counters.end()) {
        w.injected_delta = it->second;
      }
      if (const auto it = row.counters.find("completions");
          it != row.counters.end()) {
        w.completions_delta = it->second;
      }
      sum_injected += w.injected_delta;
      sum_completions += w.completions_delta;
      w.in_flight = row.in_flight;
      sum_in_flight += static_cast<double>(row.in_flight);
      const auto data = row.counters.find("data_bytes");
      const auto link = row.counters.find("link_bytes");
      if (data != row.counters.end() && link != row.counters.end() &&
          link->second > 0) {
        w.bandwidth_efficiency = static_cast<double>(data->second) /
                                 static_cast<double>(link->second);
      }
      // Strict '>' keeps ties deterministic: the map walks names in
      // sorted order, so the lexicographically first winner sticks.
      std::uint64_t max_active = 0;
      for (const auto& [name, active] : row.census) {
        if (active > max_active) {
          max_active = active;
          w.critical_stage = name;
        }
      }
      if (max_active > 0 && w.span > 0) {
        w.critical_utilization =
            static_cast<double>(max_active) / static_cast<double>(w.span);
      }
      if (!w.critical_stage.empty()) ++critical_counts[w.critical_stage];
      ra.windows.push_back(std::move(w));
    }
    if (!ra.windows.empty()) {
      ra.mean_in_flight =
          sum_in_flight / static_cast<double>(ra.windows.size());
    }

    const std::uint64_t completions =
        run.has_footer ? run.completions : sum_completions;
    if (ra.end_cycle > 0) {
      ra.throughput = static_cast<double>(completions) /
                      static_cast<double>(ra.end_cycle);
    }
    if (ra.throughput > 0.0) {
      ra.derived_latency = ra.mean_in_flight / ra.throughput;
    }
    if (const double* latency = report_latency(report, run.label);
        latency != nullptr && *latency > 0.0 && ra.throughput > 0.0) {
      ra.has_report_latency = true;
      ra.report_latency = *latency;
      ra.little_mismatch_pct =
          std::fabs(ra.derived_latency - ra.report_latency) /
          ra.report_latency * 100.0;
      ra.little_ok = ra.little_mismatch_pct <= options.tolerance_pct;
    }

    // Stream-internal conservation: the delta encoding must reconstruct
    // the footer's absolute totals exactly.
    if (!run.has_footer) {
      ra.stream_conserved = false;
      ra.stream_conservation_error = "run has no end footer (truncated?)";
    } else if (sum_injected != run.injected) {
      ra.stream_conserved = false;
      ra.stream_conservation_error =
          "window injected deltas sum to " + std::to_string(sum_injected) +
          " but footer says " + std::to_string(run.injected);
    } else if (sum_completions != run.completions) {
      ra.stream_conserved = false;
      ra.stream_conservation_error =
          "window completion deltas sum to " +
          std::to_string(sum_completions) + " but footer says " +
          std::to_string(run.completions);
    } else if (run.footer_windows != run.windows.size()) {
      ra.stream_conserved = false;
      ra.stream_conservation_error =
          "footer counts " + std::to_string(run.footer_windows) +
          " windows, stream carries " + std::to_string(run.windows.size());
    } else if (run.in_flight_at_end !=
               (run.injected > run.completions
                    ? run.injected - run.completions
                    : 0)) {
      ra.stream_conserved = false;
      ra.stream_conservation_error =
          "footer in_flight_at_end breaks injected = completed + in-flight";
    }

    // Cross-artifact conservation: the report's own totals (measured by
    // an independent path) must match the stream footer.
    if (run.has_footer) {
      const ReportTotals totals = report_totals(report, run.label);
      if (totals.found) {
        ra.cross_checked = true;
        if (totals.has_injected &&
            !same_count(totals.injected, run.injected)) {
          ra.cross_conserved = false;
          ra.cross_conservation_error =
              "report injected " + format_double(totals.injected) +
              " != stream " + std::to_string(run.injected);
        } else if (!same_count(totals.completions, run.completions)) {
          ra.cross_conserved = false;
          ra.cross_conservation_error =
              "report completions " + format_double(totals.completions) +
              " != stream " + std::to_string(run.completions);
        }
      }
    }

    for (const auto& [name, count] : critical_counts) {
      if (count > ra.critical_windows) {
        ra.critical_component = name;
        ra.critical_windows = count;
      }
    }

    result.watchdog_fired = result.watchdog_fired || ra.watchdog_fired;
    result.conservation_failed =
        result.conservation_failed || !ra.stream_conserved ||
        (ra.cross_checked && !ra.cross_conserved);
    result.runs.push_back(std::move(ra));
  }
  return result;
}

std::string render_analysis(const AnalysisResult& result,
                            const AnalysisOptions& options) {
  std::ostringstream out;
  for (const RunAnalysis& ra : result.runs) {
    out << "[" << ra.label << "] " << ra.windows.size() << " windows, end cycle "
        << ra.end_cycle << "\n";
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  throughput      %.6g completions/cycle\n",
                  ra.throughput);
    out << line;
    std::snprintf(line, sizeof(line), "  mean in-flight  %.6g\n",
                  ra.mean_in_flight);
    out << line;
    if (ra.has_report_latency) {
      std::snprintf(line, sizeof(line),
                    "  queue dwell     %.6g cy derived (L/lambda) vs %.6g cy "
                    "reported (%.1f%% apart, tol %.0f%%)%s\n",
                    ra.derived_latency, ra.report_latency,
                    ra.little_mismatch_pct, options.tolerance_pct,
                    ra.little_ok ? "" : "  <-- Little's law disagrees");
      out << line;
    } else {
      std::snprintf(line, sizeof(line),
                    "  queue dwell     %.6g cy derived (L/lambda); no report "
                    "latency to cross-check\n",
                    ra.derived_latency);
      out << line;
    }
    out << "  conservation    stream "
        << (ra.stream_conserved ? "OK" : "FAIL: " +
                                         ra.stream_conservation_error)
        << "; report "
        << (!ra.cross_checked
                ? "not checked"
                : (ra.cross_conserved ? "OK" : "FAIL: " +
                                               ra.cross_conservation_error))
        << "\n";
    double bw_sum = 0.0;
    std::size_t bw_windows = 0;
    for (const WindowDiagnosis& w : ra.windows) {
      if (w.bandwidth_efficiency >= 0.0) {
        bw_sum += w.bandwidth_efficiency;
        ++bw_windows;
      }
    }
    if (bw_windows > 0) {
      std::snprintf(line, sizeof(line),
                    "  bandwidth eff   %.1f%% mean across %zu windows\n",
                    bw_sum / static_cast<double>(bw_windows) * 100.0,
                    bw_windows);
      out << line;
    }
    if (!ra.critical_component.empty()) {
      std::snprintf(line, sizeof(line),
                    "  critical stage  %s (critical in %zu/%zu windows)\n",
                    ra.critical_component.c_str(), ra.critical_windows,
                    ra.windows.size());
      out << line;
    }
    if (ra.watchdog_fired) {
      out << "  verdict: STALLED at cycle " << ra.watchdog_cycle
          << " - zero completions with work in flight (watchdog)\n";
    } else if (!ra.stream_conserved ||
               (ra.cross_checked && !ra.cross_conserved)) {
      out << "  verdict: CONSERVATION FAILURE - artifacts disagree, do not "
             "trust this run\n";
    } else if (!ra.critical_component.empty()) {
      out << "  verdict: healthy; bottleneck " << ra.critical_component
          << "\n";
    } else {
      out << "  verdict: healthy; no census in stream to rank a "
             "bottleneck\n";
    }
  }
  if (result.runs.empty()) out << "analyze: stream contains no runs\n";
  return out.str();
}

std::string analysis_json(const AnalysisResult& result,
                          const AnalysisOptions& options) {
  std::string out = "{\"schema\":\"mac3d-analysis/1\"";
  out += ",\"tolerance_pct\":" + format_double(options.tolerance_pct);
  out += ",\"watchdog_fired\":";
  out += result.watchdog_fired ? "true" : "false";
  out += ",\"conservation_failed\":";
  out += result.conservation_failed ? "true" : "false";
  out += ",\"runs\":[";
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const RunAnalysis& ra = result.runs[i];
    if (i != 0) out += ",";
    out += "{\"label\":" + json_quote(ra.label);
    out += ",\"end_cycle\":" + std::to_string(ra.end_cycle);
    out += ",\"window_count\":" + std::to_string(ra.windows.size());
    out += ",\"throughput_per_cycle\":" + format_double(ra.throughput);
    out += ",\"mean_in_flight\":" + format_double(ra.mean_in_flight);
    out +=
        ",\"derived_latency_cycles\":" + format_double(ra.derived_latency);
    if (ra.has_report_latency) {
      out +=
          ",\"report_latency_cycles\":" + format_double(ra.report_latency);
      out += ",\"little_mismatch_pct\":" +
             format_double(ra.little_mismatch_pct);
      out += ",\"little_within_tolerance\":";
      out += ra.little_ok ? "true" : "false";
    }
    out += ",\"conservation\":{\"stream_ok\":";
    out += ra.stream_conserved ? "true" : "false";
    if (!ra.stream_conserved) {
      out += ",\"stream_error\":" + json_quote(ra.stream_conservation_error);
    }
    out += ",\"cross_checked\":";
    out += ra.cross_checked ? "true" : "false";
    out += ",\"cross_ok\":";
    out += ra.cross_conserved ? "true" : "false";
    if (!ra.cross_conserved) {
      out += ",\"cross_error\":" + json_quote(ra.cross_conservation_error);
    }
    out += "}";
    out += ",\"watchdog\":{\"fired\":";
    out += ra.watchdog_fired ? "true" : "false";
    if (ra.watchdog_fired) {
      out += ",\"fired_at_cycle\":" + std::to_string(ra.watchdog_cycle);
    }
    out += "}";
    if (!ra.critical_component.empty()) {
      out += ",\"critical\":{\"component\":" +
             json_quote(ra.critical_component) +
             ",\"windows\":" + std::to_string(ra.critical_windows) + "}";
    }
    out += ",\"windows\":[";
    for (std::size_t w = 0; w < ra.windows.size(); ++w) {
      const WindowDiagnosis& win = ra.windows[w];
      if (w != 0) out += ",";
      out += "{\"cycle\":" + std::to_string(win.cycle);
      out += ",\"span\":" + std::to_string(win.span);
      out += ",\"injected\":" + std::to_string(win.injected_delta);
      out += ",\"completions\":" + std::to_string(win.completions_delta);
      out += ",\"in_flight\":" + std::to_string(win.in_flight);
      if (win.bandwidth_efficiency >= 0.0) {
        out += ",\"bandwidth_efficiency\":" +
               format_double(win.bandwidth_efficiency);
      }
      if (!win.critical_stage.empty()) {
        out += ",\"critical_stage\":" + json_quote(win.critical_stage);
        out += ",\"critical_utilization\":" +
               format_double(win.critical_utilization);
      }
      out += "}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

int run_analyze(const std::string& report_file,
                const std::string& snapshots_file,
                const std::string& json_out,
                const AnalysisOptions& options) {
  SnapshotStream stream;
  std::string error;
  if (!load_snapshot_stream(snapshots_file, stream, error)) {
    std::fprintf(stderr, "analyze: %s\n", error.c_str());
    return 2;
  }
  FlatReport report;
  if (!report_file.empty() &&
      !load_report(report_file, report, error)) {
    std::fprintf(stderr, "analyze: %s\n", error.c_str());
    return 2;
  }
  const AnalysisResult result = analyze_stream(report, stream, options);
  const std::string text = render_analysis(result, options);
  std::fputs(text.c_str(), stdout);
  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary);
    out << analysis_json(result, options);
    if (!out) {
      std::fprintf(stderr, "analyze: cannot write %s\n", json_out.c_str());
      return 2;
    }
  }
  return result.exit_code();
}

}  // namespace mac3d
