// The "without MAC" baseline memory path: every raw request goes to the
// 3D-stacked memory as its own single-FLIT (16 B) transaction — exactly
// the behaviour the paper's Fig. 2 (right) and Sec. 5.3 evaluate against.
// Mirrors the MacCoalescer cycle interface so drivers are path-generic.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitutil.hpp"
#include "common/config.hpp"
#include "common/ring_queue.hpp"
#include "common/types.hpp"
#include "mem/hmc_device.hpp"
#include "mem/request_ledger.hpp"
#include "obs/obs.hpp"

namespace mac3d {

class RawPath {
 public:
  RawPath(const SimConfig& config, HmcDevice& device)
      : device_(device),
        queue_capacity_(config.queue_depth),
        ledger_(device, stats_) {}

  [[nodiscard]] bool can_accept() const noexcept {
    return queue_.size() < queue_capacity_;
  }

  /// The raw path is a plain FIFO: intake succeeds while there is space
  /// (capped at two per cycle, matching the MAC's dual-ported intake).
  [[nodiscard]] bool try_accept(const RawRequest& request, Cycle now) {
    if (queue_.size() >= queue_capacity_) return false;
    if (accepts_at_ == now && accepts_this_cycle_ >= 2) return false;
    if (accepts_at_ != now) {
      accepts_at_ = now;
      accepts_this_cycle_ = 0;
    }
    ++accepts_this_cycle_;
    queue_.push_back(request);
    work_until_.work(now);
    ledger_.accept(request, now);
    return true;
  }

  void accept(const RawRequest& request, Cycle now) {
    const bool accepted = try_accept(request, now);
    assert(accepted);
    (void)accepted;
  }

  void tick(Cycle now) {
    ledger_.on_tick(now);
    if (queue_.empty()) return;
    const RawRequest& head = queue_.front();
    if (head.op == MemOp::kFence) {
      if (ledger_.in_flight() == 0) {
        ledger_.retire_fence(Target{head.tid, head.tag, 0}, now);
        queue_.pop_front();
        work_until_.work(now);
      }
      return;
    }
    HmcRequest request;
    request.addr = align_down(head.addr, kFlitBytes);
    request.data_bytes = kFlitBytes;
    request.write = head.op == MemOp::kStore;
    request.atomic = head.op == MemOp::kAtomic;
    request.home_node = head.node;
    const std::uint32_t flit = device_.address_map().flit_of(
        device_.address_map().local_addr(head.addr));
    request.targets.push_back(
        Target{head.tid, head.tag, static_cast<std::uint8_t>(flit)});
    if (!device_.can_accept(request, now)) return;
    ledger_.submit(std::move(request), now);
    queue_.pop_front();
    work_until_.work(now);
  }

  /// Completions at or before `now` (RequestLedger::drain); valid until
  /// the next drain.
  const std::vector<CompletedAccess>& drain(Cycle now) {
    const std::vector<CompletedAccess>& done = ledger_.drain(now);
    if (!done.empty()) work_until_.work(now);
    return done;
  }

  [[nodiscard]] bool idle() const noexcept {
    return queue_.empty() && ledger_.idle();
  }

  [[nodiscard]] Cycle next_event(Cycle now) const noexcept {
    if (idle()) return 0;
    if (ledger_.fence_ready()) return now;
    if (!queue_.empty() && queue_.front().op != MemOp::kFence) return now + 1;
    const Cycle completion = device_.next_completion();
    return completion > now ? completion : now + 1;
  }

  [[nodiscard]] const AccessCounts& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }

  /// Enable request/response conservation checking (docs/INVARIANTS.md
  /// §conservation). Same contract as MacCoalescer::attach_checks.
  void attach_checks(CheckContext* context, const std::string& scope = "raw") {
    ledger_.attach_checks(context, scope);
  }

  /// Enable request-lifecycle telemetry (docs/OBSERVABILITY.md): the
  /// ledger stamps queue_insert at intake and response_match at drain.
  /// The sink must outlive the path; pass nullptr to detach.
  void attach_sink(EventSink* sink) noexcept { ledger_.attach_sink(sink); }

  /// Register the path's idle-cycle census row, `<prefix>queue`: a
  /// threshold row over a work slot marked whenever the FIFO accepts,
  /// dispatches, retires a fence or completes (docs/OBSERVABILITY.md).
  /// Same contract as MacCoalescer::register_census.
  template <typename Census>
  void register_census(Census& census, const std::string& prefix) const {
    census.add_threshold(prefix + "queue", &work_until_);
  }

 private:
  HmcDevice& device_;
  std::size_t queue_capacity_;
  Cycle accepts_at_ = ~Cycle{0};
  std::uint32_t accepts_this_cycle_ = 0;
  RingQueue<RawRequest> queue_;
  AccessCounts stats_;
  RequestLedger ledger_;
  BusyUntil work_until_;  ///< census slot (register_census)
};

}  // namespace mac3d
