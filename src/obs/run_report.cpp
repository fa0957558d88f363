#include "obs/run_report.hpp"

#include <algorithm>
#include <fstream>

#include "common/json.hpp"

namespace mac3d {

RunReport::RunReport() { set_string("schema", kSchema); }

void RunReport::set_string(const std::string& key, std::string_view value) {
  set_raw(key, json_quote(value));
}

void RunReport::set_number(const std::string& key, double value) {
  set_raw(key, json_number(value));
}

void RunReport::set_bool(const std::string& key, bool value) {
  set_raw(key, value ? "true" : "false");
}

void RunReport::set_raw(const std::string& key, std::string json) {
  for (auto& [name, value] : fields_) {
    if (name == key) {
      value = std::move(json);
      return;
    }
  }
  fields_.emplace_back(key, std::move(json));
}

void RunReport::set_config(const SimConfig& config) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, token] : config.to_kv()) {
    if (!first) out += ',';
    first = false;
    out += json_quote(key);
    out += ':';
    out += token;
  }
  out += '}';
  config_json_ = std::move(out);
}

void RunReport::set_metrics(const StatSet& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics.values()) {
    out += out.size() == 1 ? "\n    " : ",\n    ";
    out += json_quote(name) + ": " + json_number(value);
  }
  metrics_json_ = out + (out.size() == 1 ? "}" : "\n  }");
}

RunReport::PathEntry& RunReport::path_entry(const std::string& name) {
  for (auto& entry : paths_) {
    if (entry.name == name) return entry;
  }
  paths_.emplace_back();
  paths_.back().name = name;
  return paths_.back();
}

void RunReport::set_path_stats(const std::string& path, const StatSet& stats) {
  path_entry(path).stats_json = stats.to_json();
}

void RunReport::add_path_stage(const std::string& path, std::string_view stage,
                               const Histogram& hist) {
  path_entry(path).stages.emplace_back(std::string(stage),
                                       histogram_json(hist));
}

void RunReport::set_path_request_latency(const std::string& path,
                                         const Histogram& hist) {
  path_entry(path).request_latency_json = histogram_json(hist);
}

std::string RunReport::histogram_json(const Histogram& hist) {
  std::string out = "{\"count\":" + json_number(hist.count());
  out += ",\"min\":" + json_number(hist.min_value());
  out += ",\"max\":" + json_number(hist.max_value());
  out += ",\"p50\":" + json_number(hist.quantile(0.50));
  out += ",\"p90\":" + json_number(hist.quantile(0.90));
  out += ",\"p99\":" + json_number(hist.quantile(0.99));
  out += ",\"buckets\":[";
  const auto& buckets = hist.buckets();
  std::size_t used = buckets.size();
  while (used > 0 && buckets[used - 1] == 0) --used;
  for (std::size_t i = 0; i < used; ++i) {
    if (i != 0) out += ',';
    out += json_number(buckets[i]);
  }
  out += "]}";
  return out;
}

std::string RunReport::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, json] : fields_) {
    if (!first) out += ',';
    first = false;
    out += "\n  " + json_quote(key) + ": " + json;
  }
  if (!config_json_.empty()) {
    if (!first) out += ',';
    first = false;
    out += "\n  \"config\": " + config_json_;
  }
  if (!metrics_json_.empty()) {
    if (!first) out += ',';
    first = false;
    out += "\n  \"metrics\": " + metrics_json_;
  }
  if (!latency_json_.empty()) {
    if (!first) out += ',';
    first = false;
    out += "\n  \"latency\": " + latency_json_;
  }
  if (!host_json_.empty()) {
    if (!first) out += ',';
    first = false;
    out += "\n  \"host\": " + host_json_;
  }
  if (!paths_.empty()) {
    if (!first) out += ',';
    first = false;
    out += "\n  \"paths\": {";
    std::vector<const PathEntry*> sorted;
    sorted.reserve(paths_.size());
    for (const auto& entry : paths_) sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const PathEntry* a, const PathEntry* b) {
                return a->name < b->name;
              });
    bool first_path = true;
    for (const PathEntry* entry : sorted) {
      if (!first_path) out += ',';
      first_path = false;
      out += "\n    " + json_quote(entry->name) + ": {";
      bool first_section = true;
      if (!entry->stats_json.empty()) {
        out += "\n      \"stats\": " + entry->stats_json;
        first_section = false;
      }
      if (!entry->request_latency_json.empty()) {
        if (!first_section) out += ',';
        first_section = false;
        out += "\n      \"request_latency\": " + entry->request_latency_json;
      }
      if (!entry->stages.empty()) {
        if (!first_section) out += ',';
        first_section = false;
        auto stages = entry->stages;
        std::sort(stages.begin(), stages.end());
        out += "\n      \"stages\": {";
        bool first_stage = true;
        for (const auto& [stage, json] : stages) {
          if (!first_stage) out += ',';
          first_stage = false;
          out += "\n        " + json_quote(stage) + ": " + json;
        }
        out += "\n      }";
      }
      out += "\n    }";
    }
    out += "\n  }";
  }
  out += "\n}\n";
  return out;
}

bool RunReport::write(const std::string& file) const {
  std::ofstream out(file, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return false;
  out << to_json();
  return out.good();
}

}  // namespace mac3d
