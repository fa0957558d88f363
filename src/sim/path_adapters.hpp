// The four MemoryPath adapters — mac, raw, mshr, warp (DESIGN.md
// §policy). Each holds everything specific to its path: the metric and
// check-scope namespaces, the sampler and snapshot gauges, the
// snapshot's injected count and the path's DriverResult fields, written
// once for both simulators. make_memory_path builds them for the Node;
// the streaming driver (src/sim/driver.cpp) instantiates its cycle loop
// on the concrete adapter, whose final overrides it calls with no virtual
// hop. They stay out of memory_path.hpp: code that holds a MemoryPath
// need not compile against the paths behind it, and compiling the Node
// against them slows the System's event loop by about 5 %.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/mshr.hpp"
#include "mac/coalescer.hpp"
#include "mac/warp_coalescer.hpp"
#include "mem/hmc_device.hpp"
#include "obs/profiler.hpp"
#include "sim/driver.hpp"
#include "sim/memory_path.hpp"
#include "sim/raw_path.hpp"

namespace mac3d {

/// Shared plumbing: everything except the per-path specifics.
template <typename Path, CoalescerPolicy kPolicy>
class PathAdapter : public MemoryPath {
 public:
  template <typename... Args>
  explicit PathAdapter(Args&&... args)
      : path_(std::forward<Args>(args)...) {}

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
  const std::vector<CompletedAccess>& drain(Cycle now) final {
    return path_.drain(now);
  }
  [[nodiscard]] bool idle() const final { return path_.idle(); }
  [[nodiscard]] Cycle next_event(Cycle now) const final {
    return path_.next_event(now);
  }
  void attach_checks(CheckContext* context,
                     const std::string& scope_prefix) final {
    path_.attach_checks(context, scope_prefix + name());
  }
  void attach_sink(EventSink* sink) final { path_.attach_sink(sink); }
  void register_census(ActivityCensus& census,
                       const std::string& prefix) const final {
    path_.register_census(census, prefix);
  }

 protected:
  Path path_;
};

// Each adapter adds the driver's view of its path: queue occupancy and
// issue backlog (sampler and snapshot gauges), the snapshot's injected
// count — everything that will eventually complete, fences included —
// and report(), the path's DriverResult fields.

class MacAdapter final
    : public PathAdapter<MacCoalescer, CoalescerPolicy::kMac> {
 public:
  using PathAdapter::PathAdapter;

  void collect(StatSet& out, const std::string& prefix) const override {
    path_.stats().collect(out, prefix + ".mac");
  }

  [[nodiscard]] std::size_t occupancy() const { return path_.arq().size(); }
  [[nodiscard]] std::size_t issue_backlog() const {
    return path_.issue_backlog();
  }
  [[nodiscard]] std::uint64_t injected() const {
    return path_.stats().raw_in + path_.stats().fences_in;
  }
  void report(DriverResult& result) const {
    result.raw_requests = path_.stats().raw_in;
    result.avg_latency_cycles = path_.stats().raw_latency_cycles.mean();
    result.avg_targets_per_entry =
        path_.arq().stats().targets_per_entry.mean();
    result.max_targets_per_entry = path_.arq().stats().targets_per_entry.max();
    result.packets_by_size = path_.stats().packets_by_size;
  }
};

class RawAdapter final : public PathAdapter<RawPath, CoalescerPolicy::kRaw> {
 public:
  using PathAdapter::PathAdapter;

  void collect(StatSet& out, const std::string& prefix) const override {
    const std::string base = prefix + ".raw";
    const AccessCounts& stats = path_.stats();
    out.set(base + ".raw_in", static_cast<double>(stats.raw_in));
    out.set(base + ".packets_out", static_cast<double>(stats.packets_out));
    out.set(base + ".avg_raw_latency_cycles",
            stats.raw_latency_cycles.mean());
  }

  [[nodiscard]] std::size_t occupancy() const { return path_.queue_depth(); }
  [[nodiscard]] std::size_t issue_backlog() const { return 0; }
  [[nodiscard]] std::uint64_t injected() const {
    return path_.stats().raw_in + path_.stats().fences_in;
  }
  void report(DriverResult& result) const {
    result.raw_requests = path_.stats().raw_in;
    result.avg_latency_cycles = path_.stats().raw_latency_cycles.mean();
    result.packets_by_size[kFlitBytes] = path_.stats().packets_out;
  }
};

/// The MSHR geometry comes from config.mshr_entries / mshr_block_bytes.
class MshrAdapter final
    : public PathAdapter<MshrCoalescer, CoalescerPolicy::kMshr> {
 public:
  MshrAdapter(const SimConfig& config, HmcDevice& device)
      : PathAdapter(config, device, config.mshr_entries,
                    config.mshr_block_bytes),
        block_bytes_(config.mshr_block_bytes) {}

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

  [[nodiscard]] std::size_t occupancy() const { return path_.occupancy(); }
  [[nodiscard]] std::size_t issue_backlog() const {
    return path_.dispatch_backlog();
  }
  [[nodiscard]] std::uint64_t injected() const {
    return path_.stats().raw_in + path_.stats().fences_in;
  }
  void report(DriverResult& result) const {
    result.raw_requests = path_.stats().raw_in;
    result.avg_latency_cycles = path_.stats().raw_latency_cycles.mean();
    result.packets_by_size[block_bytes_] = path_.stats().packets_out;
  }

 private:
  std::uint32_t block_bytes_;
};

class WarpAdapter final
    : public PathAdapter<WarpCoalescer, CoalescerPolicy::kWarp> {
 public:
  using PathAdapter::PathAdapter;

  void collect(StatSet& out, const std::string& prefix) const override {
    path_.stats().collect(out, prefix + ".warp");
  }

  [[nodiscard]] std::size_t occupancy() const { return path_.occupancy(); }
  [[nodiscard]] std::size_t issue_backlog() const {
    return path_.window_backlog();
  }
  [[nodiscard]] std::uint64_t injected() const {
    return path_.stats().raw_in + path_.stats().fences_in;
  }
  void report(DriverResult& result) const {
    result.raw_requests = path_.stats().raw_in;
    result.avg_latency_cycles = path_.stats().raw_latency_cycles.mean();
    result.packets_by_size = path_.stats().packets_by_size;
  }
};

}  // namespace mac3d
