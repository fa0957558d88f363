// Conforming counterpart to bad_metric: a whole name, a concatenation head
// and a concatenation tail that parse against docs/metrics_schema.json.
#include <map>
#include <string>

namespace mini {

struct Metrics {
  void collect_metrics(std::map<std::string, double>& out,
                       const std::string& prefix) const {
    out["system.cycles"] = 1;
    out["system" + prefix] = 1;
    out[prefix + ".cycles"] = 1;
  }
};

}  // namespace mini
