#include "sim/memory_path.hpp"

#include "cache/mshr.hpp"
#include "mac/coalescer.hpp"
#include "mac/warp_coalescer.hpp"
#include "mem/hmc_device.hpp"
#include "obs/profiler.hpp"
#include "sim/raw_path.hpp"

namespace mac3d {

MemoryPath::~MemoryPath() = default;

namespace {

/// Shared plumbing: everything except the per-path stat/census specifics.
template <typename Path, CoalescerPolicy kPolicy>
class PathAdapter : public MemoryPath {
 public:
  template <typename... Args>
  explicit PathAdapter(Args&&... args)
      : path_(std::forward<Args>(args)...) {}

  [[nodiscard]] CoalescerPolicy policy() const noexcept final {
    return kPolicy;
  }
  [[nodiscard]] const char* name() const noexcept final {
    return to_string(kPolicy).data();  // enum names are NUL-terminated
  }

  [[nodiscard]] bool can_accept() const final { return path_.can_accept(); }
  bool try_accept(const RawRequest& request, Cycle now) final {
    return path_.try_accept(request, now);
  }
  void accept(const RawRequest& request, Cycle now) final {
    path_.accept(request, now);
  }
  void tick(Cycle now) final { path_.tick(now); }
  std::vector<CompletedAccess> drain(Cycle now) final {
    return path_.drain(now);
  }
  [[nodiscard]] bool idle() const final { return path_.idle(); }
  [[nodiscard]] Cycle next_event(Cycle now) const final {
    return path_.next_event(now);
  }
  [[nodiscard]] bool did_work_this_cycle(Cycle now) const final {
    return path_.did_work_this_cycle(now);
  }
  [[nodiscard]] Cycle next_activity_cycle(Cycle now) const final {
    return path_.next_activity_cycle(now);
  }
  void attach_checks(CheckContext* context,
                     const std::string& scope_prefix) final {
    path_.attach_checks(context, scope_prefix + name());
  }
  void attach_sink(EventSink* sink) final { path_.attach_sink(sink); }

 protected:
  Path path_;
};

class MacAdapter final
    : public PathAdapter<MacCoalescer, CoalescerPolicy::kMac> {
 public:
  using PathAdapter::PathAdapter;

  void register_census(ActivityCensus& census,
                       const std::string& prefix) override {
    path_.register_census(census, prefix);
  }
  void collect(StatSet& out, const std::string& prefix) const override {
    path_.stats().collect(out, prefix + ".mac");
  }
  [[nodiscard]] MacCoalescer* as_mac() noexcept override { return &path_; }
};

class RawAdapter final : public PathAdapter<RawPath, CoalescerPolicy::kRaw> {
 public:
  using PathAdapter::PathAdapter;

  void register_census(ActivityCensus& census,
                       const std::string& prefix) override {
    census.add_component(prefix + "queue", path_);
  }
  void collect(StatSet& out, const std::string& prefix) const override {
    const std::string base = prefix + ".raw";
    out.set(base + ".raw_in", static_cast<double>(path_.raw_in()));
    out.set(base + ".packets_out", static_cast<double>(path_.packets_out()));
    out.set(base + ".avg_raw_latency_cycles", path_.latency().mean());
  }
};

class MshrAdapter final
    : public PathAdapter<MshrCoalescer, CoalescerPolicy::kMshr> {
 public:
  using PathAdapter::PathAdapter;

  void register_census(ActivityCensus& census,
                       const std::string& prefix) override {
    census.add_component(prefix + "mshr", path_);
  }
  void collect(StatSet& out, const std::string& prefix) const override {
    const std::string base = prefix + ".mshr";
    const MshrStats& stats = path_.stats();
    out.set(base + ".raw_in", static_cast<double>(stats.raw_in));
    out.set(base + ".merged", static_cast<double>(stats.merged));
    out.set(base + ".packets_out", static_cast<double>(stats.packets_out));
    out.set(base + ".stalls_full", static_cast<double>(stats.stalls_full));
    out.set(base + ".coalescing_efficiency", stats.coalescing_efficiency());
    out.set(base + ".avg_raw_latency_cycles",
            stats.raw_latency_cycles.mean());
  }
};

class WarpAdapter final
    : public PathAdapter<WarpCoalescer, CoalescerPolicy::kWarp> {
 public:
  using PathAdapter::PathAdapter;

  void register_census(ActivityCensus& census,
                       const std::string& prefix) override {
    census.add_component(prefix + "warp", path_);
  }
  void collect(StatSet& out, const std::string& prefix) const override {
    path_.stats().collect(out, prefix + ".warp");
  }
};

}  // namespace

std::unique_ptr<MemoryPath> make_memory_path(const SimConfig& config,
                                             HmcDevice& device) {
  switch (config.policy) {
    case CoalescerPolicy::kRaw:
      return std::make_unique<RawAdapter>(config, device);
    case CoalescerPolicy::kMshr:
      return std::make_unique<MshrAdapter>(config, device,
                                           config.mshr_entries,
                                           config.mshr_block_bytes);
    case CoalescerPolicy::kWarp:
      return std::make_unique<WarpAdapter>(config, device);
    case CoalescerPolicy::kMac:
      break;
  }
  return std::make_unique<MacAdapter>(config, device);
}

}  // namespace mac3d
