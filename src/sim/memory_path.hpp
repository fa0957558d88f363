// The memory path between a requester and its HMC device (DESIGN.md
// §policy): the runtime-polymorphic interface the full-system Node holds,
// selected once from SimConfig::policy, so one virtual hop per call is
// paid only where the policy is a run-time knob. Its four final adapters
// (src/sim/path_adapters.hpp) hold everything specific to each path; the
// streaming driver instantiates its cycle loop on them directly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/request_ledger.hpp"  // CompletedAccess

namespace mac3d {

class ActivityCensus;
class CheckContext;
class EventSink;
class HmcDevice;

class MemoryPath {
 public:
  virtual ~MemoryPath();

  /// The namespace leaf ("mac", "raw", "mshr", "warp") used for metric
  /// prefixes, census rows and check scopes.
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  [[nodiscard]] virtual bool can_accept() const = 0;
  virtual bool try_accept(const RawRequest& request, Cycle now) = 0;
  virtual void tick(Cycle now) = 0;
  /// Completions at or before `now`; the buffer belongs to the path and
  /// stays valid until its next drain.
  virtual const std::vector<CompletedAccess>& drain(Cycle now) = 0;
  [[nodiscard]] virtual bool idle() const = 0;
  /// Wake oracle (docs/PARALLELISM.md §event-driven engine): the earliest
  /// cycle the path could make progress, 0 when drained.
  [[nodiscard]] virtual Cycle next_event(Cycle now) const = 0;

  /// Attach invariant checking; `scope_prefix` is the owner's namespace
  /// ("node0."), to which the path appends its name().
  virtual void attach_checks(CheckContext* context,
                             const std::string& scope_prefix) = 0;
  virtual void attach_sink(EventSink* sink) = 0;
  /// Register this path's census threshold rows under `prefix` + its
  /// unit names (the MAC contributes mac/arq/builder/flit_table, the
  /// others one row).
  virtual void register_census(ActivityCensus& census,
                               const std::string& prefix) const = 0;
  /// Emit the path's stats under `prefix` + "." + name() + ".*".
  virtual void collect(StatSet& out, const std::string& prefix) const = 0;
};

/// Build the path selected by config.policy over `device`.
[[nodiscard]] std::unique_ptr<MemoryPath> make_memory_path(
    const SimConfig& config, HmcDevice& device);

}  // namespace mac3d
