// obs.metric_name_grammar: literals in a collect_metrics body that do not
// parse against the fixture's docs/metrics_schema.json.
#include <map>
#include <string>

namespace mini {

struct Metrics {
  void collect_metrics(std::map<std::string, double>& out,
                       const std::string& prefix) const {
    out["system.unknown_counter"] = 1;
    out[prefix + ".bogus"] = 1;
  }
};

}  // namespace mini
