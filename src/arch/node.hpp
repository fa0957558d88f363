// One node of the NUMA system (paper Fig. 4): in-order cores with SPMs, a
// request router, a coalescer policy front-end (SimConfig::policy — the
// unified MAC by default), and the directly-attached 3D-stacked memory
// device. Remote traffic flows through the system interconnect.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/core_model.hpp"
#include "arch/interconnect.hpp"
#include "arch/request_router.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/hmc_device.hpp"
#include "mem/request_ledger.hpp"
#include "sim/memory_path.hpp"

namespace mac3d {

class ActivityCensus;

class Node {
 public:
  /// `thread_owner`: system-wide map ThreadId -> owning node (for response
  /// routing); `thread_core`: ThreadId -> core index on its node.
  Node(const SimConfig& config, NodeId id,
       const std::vector<NodeId>* thread_owner,
       const std::vector<CoreId>* thread_core);

  void add_thread(ThreadId tid, const std::vector<MemRecord>* records);

  /// Advance one cycle. `fabric` may be null for single-node systems.
  void tick(Cycle now, Interconnect* fabric);

  [[nodiscard]] bool finished() const noexcept;
  [[nodiscard]] bool drained() const noexcept;

  // ---- Wake oracle (docs/PARALLELISM.md §event-driven engine) ------------
  /// Earliest cycle > `now` at which any unit of this node could do work
  /// (0 = drained forever barring fabric arrivals, which the System-level
  /// jump covers via Interconnect::next_delivery). Ask only after
  /// tick(now) — the answer reflects post-tick state and stays valid until
  /// the node's next tick or a delivery into its fabric lanes, which is
  /// what lets the event engine cache it per node.
  [[nodiscard]] Cycle next_activity_cycle(Cycle now) const noexcept;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] HmcDevice& device() noexcept { return *device_; }
  [[nodiscard]] const HmcDevice& device() const noexcept { return *device_; }
  /// The policy front-end between router and device (config.policy).
  [[nodiscard]] MemoryPath& memory_path() noexcept { return *path_; }
  [[nodiscard]] const MemoryPath& memory_path() const noexcept {
    return *path_;
  }
  [[nodiscard]] RequestRouter& router() noexcept { return *router_; }
  [[nodiscard]] CoreModel& core(std::size_t i) { return cores_.at(i); }
  [[nodiscard]] const CoreModel& core(std::size_t i) const {
    return cores_.at(i);
  }
  [[nodiscard]] std::size_t core_count() const noexcept {
    return cores_.size();
  }
  [[nodiscard]] std::uint64_t completions_delivered() const noexcept {
    return completions_delivered_;
  }
  [[nodiscard]] const RunningStat& request_latency() const noexcept {
    return request_latency_;
  }

  void collect(StatSet& out, const std::string& prefix) const;

  /// Enable model-invariant checking on this node's device, MAC and router
  /// (docs/INVARIANTS.md). The context must outlive the node; pass nullptr
  /// to detach.
  void attach_checks(CheckContext* context);

  /// Enable request-lifecycle telemetry on this node's router, MAC and
  /// device, plus core_complete stamping when completions are delivered to
  /// local cores (docs/OBSERVABILITY.md). The sink must outlive the node;
  /// pass nullptr to detach.
  void attach_sink(EventSink* sink);

  /// Register this node's idle-cycle census rows under "node<id>."
  /// (router, the memory path's units, plus the device's banks /
  /// vault<V> / link<L> units — docs/OBSERVABILITY.md §profiler). Rows
  /// point into this node: seal the census before the node is destroyed.
  void register_census(ActivityCensus& census) const;

 private:
  void dispatch_completion(const CompletedAccess& completion, Cycle now,
                           Interconnect* fabric);

  SimConfig config_;
  NodeId id_;
  const std::vector<NodeId>* thread_owner_;
  const std::vector<CoreId>* thread_core_;
  std::unique_ptr<HmcDevice> device_;
  std::unique_ptr<MemoryPath> path_;
  std::unique_ptr<RequestRouter> router_;
  std::vector<CoreModel> cores_;
  std::vector<RawRequest> pending_remote_;  ///< retry buffer (queue full)
  std::uint64_t completions_delivered_ = 0;
  RunningStat request_latency_;
  EventSink* sink_ = nullptr;
};

}  // namespace mac3d
