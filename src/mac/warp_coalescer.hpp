// Warp-iterative coalescing policy (SIMT-style, after SimTight/GPU memory
// coalescers): intake buffers raw requests in arrival order, groups up to
// `warp_lanes` consecutive non-fence requests into a *window*, then serves
// the window one coalescing iteration per cycle — pick the first unserved
// lane as leader, merge every unserved lane that touches the same
// `warp_block_bytes` block with the same operation class into one HMC
// packet, replay the rest next iteration. A partially filled window is
// released after `warp_window_cycles` or when a fence bounds it.
// Mirrors the MacCoalescer cycle interface so drivers are path-generic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/ring_queue.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/hmc_device.hpp"
#include "mem/request_ledger.hpp"
#include "obs/obs.hpp"

namespace mac3d {

/// raw_in, fences_in, packets_out and the per-request latency come from
/// AccessCounts (the ledger's counts).
struct WarpStats : AccessCounts {
  std::uint64_t windows = 0;      ///< warp windows formed
  std::uint64_t merged_lanes = 0; ///< non-leader lanes riding a packet
  std::uint64_t replays = 0;      ///< extra iterations beyond the first
  std::map<std::uint32_t, std::uint64_t> packets_by_size;

  /// Raw completions delivered upstream (fences excluded): one latency
  /// sample each.
  [[nodiscard]] std::uint64_t completions() const noexcept {
    return raw_latency_cycles.count();
  }

  void collect(StatSet& out, const std::string& prefix) const;
};

class WarpCoalescer {
 public:
  WarpCoalescer(const SimConfig& config, HmcDevice& device);
  ~WarpCoalescer();
  WarpCoalescer(const WarpCoalescer&) = delete;
  WarpCoalescer& operator=(const WarpCoalescer&) = delete;

  [[nodiscard]] bool can_accept() const noexcept {
    return pending_.size() < queue_capacity_;
  }

  /// FIFO intake, capped at two accepts per cycle (the same dual-ported
  /// intake budget as the MAC and the raw path).
  [[nodiscard]] bool try_accept(const RawRequest& request, Cycle now);

  /// One cycle: retire a head fence once the pipeline drained, form a
  /// window when one is ready, then run one coalescing iteration.
  void tick(Cycle now);

  /// Completions at or before `now` (RequestLedger::drain); valid until
  /// the next drain.
  const std::vector<CompletedAccess>& drain(Cycle now);

  [[nodiscard]] bool idle() const noexcept {
    return pending_.empty() && window_.empty() && ledger_.idle();
  }

  /// Earliest cycle at which tick()/drain() could do work (0 when idle).
  [[nodiscard]] Cycle next_event(Cycle now) const noexcept;

  [[nodiscard]] const WarpStats& stats() const noexcept { return stats_; }
  /// Raw requests buffered (intake FIFO + unserved window lanes).
  [[nodiscard]] std::size_t occupancy() const noexcept {
    return pending_.size() + unserved();
  }
  [[nodiscard]] std::size_t window_backlog() const noexcept {
    return unserved();
  }

  /// Enable invariant checking (docs/INVARIANTS.md): request conservation
  /// plus the warp window/packet invariants. Same contract as
  /// MacCoalescer::attach_checks.
  void attach_checks(CheckContext* context, const std::string& scope = "warp");

  /// Enable request-lifecycle telemetry (docs/OBSERVABILITY.md): stamps
  /// builder_pick for the leader lane and merge for lanes riding its
  /// packet; the ledger stamps queue_insert and response_match. The sink
  /// must outlive the path; pass nullptr to detach.
  void attach_sink(EventSink* sink) noexcept { ledger_.attach_sink(sink); }

  /// Register the idle-cycle census row `<prefix>warp`: a threshold row
  /// over a work slot marked whenever the coalescer accepts, forms
  /// or serves a window, retires a fence or completes
  /// (docs/OBSERVABILITY.md). Same contract as
  /// MacCoalescer::register_census.
  template <typename Census>
  void register_census(Census& census, const std::string& prefix) const {
    census.add_threshold(prefix + "warp", &work_until_);
  }

 private:
  struct Lane {
    RawRequest request;
    Cycle accepted = 0;
    bool served = false;
  };

  [[nodiscard]] std::size_t unserved() const noexcept {
    return window_.size() - window_served_;
  }
  /// Consecutive non-fence lanes at the head of the intake FIFO, capped
  /// at the window size; `terminated` reports whether a fence bounds the
  /// run before the cap.
  [[nodiscard]] std::size_t head_run(bool& terminated) const noexcept;
  /// True once tick(now) may move the head run into a window.
  [[nodiscard]] bool window_ready(Cycle now) const noexcept;
  void form_window(Cycle now);
  /// One leader/merge iteration; returns false when the device refused
  /// the packet (retry next cycle).
  bool issue_iteration(Cycle now);

  const SimConfig config_;
  HmcDevice& device_;
  std::size_t queue_capacity_;
  std::size_t lanes_;
  Cycle window_cycles_;
  Cycle accepts_at_ = ~Cycle{0};
  std::uint32_t accepts_this_cycle_ = 0;
  RingQueue<Lane> pending_;
  std::vector<Lane> window_;
  std::size_t window_served_ = 0;
  BusyUntil work_until_;  ///< census slot (register_census)
  WarpStats stats_;
  RequestLedger ledger_;
};

}  // namespace mac3d
