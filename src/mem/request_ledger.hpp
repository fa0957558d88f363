// The request ledger (DESIGN.md §policy): the bookkeeping every coalescer
// policy shares between a raw request's intake and its completion. A
// policy owns one ledger over its device and reports four events to it:
//   * accept()       — a raw request (or fence) entered the policy;
//   * submit()       — a packet leaves for the device;
//   * retire_fence() — a fence retired inside the policy;
//   * drain()        — due responses are de-coalesced into one completion
//                      per merged target, matched on (TID, tag, FLIT id)
//                      (docs/MODEL.md §6).
// The ledger keeps the accept-cycle map, the intake and packet counts,
// transaction ids and the in-flight count, the queue_insert and
// response_match stamps and the conservation checker, so a policy keeps
// only its own state. Completions land in a buffer the ledger reuses:
// drain() allocates nothing once the buffer has grown to the largest
// drain.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/conservation.hpp"
#include "common/flat_cycle_map.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/hmc_device.hpp"
#include "mem/packet.hpp"
#include "obs/obs.hpp"

namespace mac3d {

/// One raw request's completion, de-coalesced from a packet response
/// (or a retired fence).
struct CompletedAccess {
  Target target;
  bool write = false;
  bool fence = false;
  bool atomic = false;
  Cycle accepted = 0;   ///< cycle the raw request entered the path
  Cycle completed = 0;  ///< cycle its data/ack became available
};

/// The counts every policy keeps the same way. Each policy's stats
/// extend it; the ledger updates it.
struct AccessCounts {
  std::uint64_t raw_in = 0;        ///< loads + stores + atomics accepted
  std::uint64_t fences_in = 0;
  std::uint64_t packets_out = 0;   ///< HMC transactions dispatched
  RunningStat raw_latency_cycles;  ///< per raw request, accept -> complete

  /// Request-reduction ratio (paper Eq. 3 as used in Sec. 5.3.1):
  /// 1 - (requests with coalescing / raw requests without).
  [[nodiscard]] double coalescing_efficiency() const noexcept {
    return raw_in == 0 ? 0.0
                       : 1.0 - static_cast<double>(packets_out) /
                                   static_cast<double>(raw_in);
  }
};

class RequestLedger {
 public:
  /// `counts` is the owning policy's stats; both must outlive the ledger.
  RequestLedger(HmcDevice& device, AccessCounts& counts)
      : device_(device), counts_(counts) {}
  RequestLedger(const RequestLedger&) = delete;
  RequestLedger& operator=(const RequestLedger&) = delete;

  /// A raw request (or fence) entered the policy at `now`. The caller
  /// keeps (tid, tag) unique among in-flight requests.
  void accept(const RawRequest& request, Cycle now) {
    accepted_.put(request_key(request.tid, request.tag), now);
    ++(request.op == MemOp::kFence ? counts_.fences_in : counts_.raw_in);
    MAC3D_OBS_STAMP(sink_, Stage::kQueueInsert, request.tid, request.tag,
                    now);
    if (conservation_ != nullptr) {
      conservation_->on_accept(request.tid, request.tag, request.op, now);
    }
  }

  /// The policy's tick(now) began: the conservation audit runs at the last
  /// tick.
  void on_tick(Cycle now) noexcept {
    assert(now >= last_tick_);
    last_tick_ = now;
  }

  /// Send `request` to the device under the next transaction id (the
  /// caller checked HmcDevice::can_accept). Returns the id.
  TransactionId submit(HmcRequest request, Cycle now) {
    const TransactionId id = next_id_++;
    request.id = id;
    device_.submit(std::move(request), now);
    ++in_flight_;
    ++counts_.packets_out;
    return id;
  }

  /// A fence retired at `now`; the next drain delivers it ahead of every
  /// response.
  void retire_fence(const Target& target, Cycle now) {
    CompletedAccess done;
    done.target = target;
    done.fence = true;
    done.accepted = take_accept(target, now);
    done.completed = now;
    fences_.push_back(done);
  }

  /// Completions available at `now`: retired fences first, then one per
  /// merged target of each due response, responses in (completed, id)
  /// order and targets in packet order. The buffer stays valid until the
  /// next drain.
  const std::vector<CompletedAccess>& drain(Cycle now) {
    return drain(now, [](const HmcResponse& response)
                          -> const std::vector<Target>& {
      return response.targets;
    });
  }

  /// drain() for a policy that keeps each packet's targets itself:
  /// `targets_of(response)` returns them, valid until its next call.
  template <typename TargetsOf>
  const std::vector<CompletedAccess>& drain(Cycle now,
                                            TargetsOf&& targets_of) {
    done_.clear();
    done_.insert(done_.end(), fences_.begin(), fences_.end());
    fences_.clear();
    for (const HmcResponse& response : device_.drain(now)) {
      assert(in_flight_ > 0);
      --in_flight_;
      for (const Target& target : targets_of(response)) {
        CompletedAccess done;
        done.target = target;
        done.write = response.write;
        done.atomic = response.atomic;
        done.accepted = take_accept(target, response.completed);
        done.completed = response.completed;
        counts_.raw_latency_cycles.add(
            static_cast<double>(done.completed - done.accepted));
        done_.push_back(done);
      }
    }
    if (sink_ != nullptr || conservation_ != nullptr) audit_drain(now);
    return done_;
  }

  /// Packets submitted whose responses have not drained yet.
  [[nodiscard]] std::uint64_t in_flight() const noexcept { return in_flight_; }
  /// A retired fence waits for the next drain.
  [[nodiscard]] bool fence_ready() const noexcept { return !fences_.empty(); }
  /// Nothing in flight and nothing waiting to drain.
  [[nodiscard]] bool idle() const noexcept {
    return in_flight_ == 0 && fences_.empty();
  }

  /// Enable request/response conservation checking (docs/INVARIANTS.md
  /// §conservation) — the one attach point for every policy. Registers an
  /// end-of-run audit at the last tick; run context.finalize() while the
  /// ledger is alive. `scope` names the path in failure dumps (e.g.
  /// "node0.mac"); pass nullptr to detach.
  void attach_checks(CheckContext* context, const std::string& scope);
  /// The attached check context, for the policy's own check sites.
  [[nodiscard]] CheckContext* checks() const noexcept { return checks_; }

  /// Enable request-lifecycle telemetry (docs/OBSERVABILITY.md): the
  /// ledger stamps queue_insert at accept() and response_match at drain();
  /// the policy stamps its own stages through sink(). The sink must
  /// outlive the ledger; pass nullptr to detach.
  void attach_sink(EventSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] EventSink* sink() const noexcept { return sink_; }

 private:
  Cycle take_accept(const Target& target, Cycle fallback) noexcept {
    return accepted_.take(request_key(target.tid, target.tag), fallback);
  }
  /// response_match stamps and conservation for the drained buffer.
  void audit_drain(Cycle now);

  HmcDevice& device_;
  AccessCounts& counts_;
  FlatCycleMap accepted_;  ///< (tid, tag) -> accept cycle
  std::vector<CompletedAccess> fences_;  ///< retired, not yet drained
  std::vector<CompletedAccess> done_;    ///< the last drain's completions
  std::uint64_t in_flight_ = 0;
  TransactionId next_id_ = 1;
  Cycle last_tick_ = 0;
  CheckContext* checks_ = nullptr;
  EventSink* sink_ = nullptr;
  std::unique_ptr<ConservationChecker> conservation_;
};

}  // namespace mac3d
