// MAC top level: ties the Raw Request Aggregator (ARQ) and the pipelined
// Request Builder together and drives the 3D-stacked memory device
// (paper Fig. 4, right side).
//
// Cycle behaviour (Sec. 4.4):
//  * at most one raw request enters the ARQ per cycle (caller-enforced);
//  * one entry pops from the ARQ every `arq_pop_interval` (2) cycles;
//  * bypass (B-bit), atomic and fence entries skip the Request Builder;
//  * built / bypassed packets issue to the device, at most one per cycle,
//    subject to link back-pressure;
//  * responses are de-coalesced into one completion per merged target.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/ring_queue.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mac/arq.hpp"
#include "mac/request_builder.hpp"
#include "mem/hmc_device.hpp"
#include "mem/request_ledger.hpp"

namespace mac3d {

class CheckContext;
class EventSink;

/// raw_in, fences_in, packets_out and the per-request latency come from
/// AccessCounts (the ledger's counts).
struct MacStats : AccessCounts {
  std::uint64_t built_out = 0;   ///< via the Request Builder
  std::uint64_t bypass_out = 0;  ///< B-bit single-FLIT requests
  std::uint64_t atomic_out = 0;
  std::uint64_t completions = 0;  ///< de-coalesced completions + fences
  std::map<std::uint32_t, std::uint64_t> packets_by_size;

  void collect(StatSet& out, const std::string& prefix) const;
};

class MacCoalescer {
 public:
  MacCoalescer(const SimConfig& config, HmcDevice& device);
  ~MacCoalescer();
  MacCoalescer(const MacCoalescer&) = delete;
  MacCoalescer& operator=(const MacCoalescer&) = delete;

  /// Space for one more raw request this cycle? (Conservative: a merge
  /// may still succeed when the queue is full — use try_accept.)
  [[nodiscard]] bool can_accept() const noexcept { return !arq_.full(); }

  /// Present one raw request to the MAC. The ARQ intake is dual-ported:
  /// per cycle it can absorb one *merging* request (updating an existing
  /// entry's FLIT map and target list) and one *allocating* request (a new
  /// entry). Returns false when the required port (or a free entry) is not
  /// available this cycle — the request router must retry next cycle.
  /// The caller keeps (tid, tag) unique among in-flight requests.
  [[nodiscard]] bool try_accept(const RawRequest& request, Cycle now);

  /// Advance all MAC stages for cycle `now`. Must be called with
  /// non-decreasing `now`; cycles may be skipped when nothing is pending.
  void tick(Cycle now);

  /// Completions (de-coalesced raw requests and retired fences) available
  /// at or before `now` (RequestLedger::drain); valid until the next
  /// drain.
  const std::vector<CompletedAccess>& drain(Cycle now);

  /// True when no work is buffered anywhere in the MAC or the device.
  [[nodiscard]] bool idle() const noexcept;

  /// Earliest future cycle at which tick/drain could make progress;
  /// returns `now + 1` when work is immediately pending, 0 when idle.
  [[nodiscard]] Cycle next_event(Cycle now) const noexcept;

  [[nodiscard]] const MacStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Arq& arq() const noexcept { return arq_; }
  /// Built/bypassed packets waiting on the link (cycle-sampler probe).
  [[nodiscard]] std::size_t issue_backlog() const noexcept {
    return issue_queue_.size();
  }
  [[nodiscard]] const RequestBuilder& builder() const noexcept {
    return builder_;
  }

  /// Total MAC storage (Sec. 5.3.3): ARQ entries + FLIT map + FLIT table.
  [[nodiscard]] std::uint64_t storage_bytes() const noexcept {
    return arq_.storage_bytes() + builder_.storage_bytes();
  }

  /// Enable model-invariant checking across the whole MAC pipeline (ARQ,
  /// builder, request/response conservation + fence ordering; see
  /// docs/INVARIANTS.md). Registers an end-of-run conservation audit with
  /// the context; run context.finalize() while this object is alive. The
  /// context must outlive the coalescer; pass nullptr to detach.
  /// `scope` names this MAC in failure dumps (e.g. "node0.mac").
  void attach_checks(CheckContext* context, const std::string& scope = "mac");

  /// Deliberate model bug for the invariant test suite: halve the next
  /// built packet's size so it no longer covers every requested FLIT
  /// (builder.flit_coverage must fire).
  void inject_truncate_next_packet() noexcept {
    builder_.inject_truncate_next_packet();
  }

  /// Enable request-lifecycle telemetry (docs/OBSERVABILITY.md): stamps
  /// merge at intake and builder_pick/flit_alloc through the pipeline;
  /// the ledger stamps queue_insert and response_match. The sink must
  /// outlive the coalescer; pass nullptr to detach.
  void attach_sink(EventSink* sink) noexcept { ledger_.attach_sink(sink); }

  /// Register the MAC's idle-cycle census rows under `prefix` (e.g.
  /// "node0."): `<prefix>mac` (any stage worked), `<prefix>arq`,
  /// `<prefix>builder` and `<prefix>flit_table`, each a threshold row
  /// over a work slot the stage marks (`work(now)`) when it works.
  /// Templated on the census like HmcDevice::register_census. The
  /// coalescer must outlive the census's observed run; seal the census
  /// before tearing it down.
  template <typename Census>
  void register_census(Census& census, const std::string& prefix) const {
    census.add_threshold(prefix + "mac", &work_until_);
    census.add_threshold(prefix + "arq", &arq_until_);
    census.add_threshold(prefix + "builder", &builder_until_);
    census.add_threshold(prefix + "flit_table", &flit_table_until_);
  }

 private:
  struct IssueItem {
    HmcRequest request;
    Cycle ready_at = 0;
    bool atomic = false;
    bool bypass = false;
  };

  void pop_stage(Cycle now);
  void issue_stage(Cycle now);

  SimConfig config_;
  HmcDevice& device_;
  Arq arq_;
  RequestBuilder builder_;
  RingQueue<IssueItem> issue_queue_;
  MacStats stats_;
  RequestLedger ledger_;
  Cycle next_pop_at_ = 0;
  Cycle merge_port_used_at_ = ~Cycle{0};  ///< dual-port intake bookkeeping
  Cycle alloc_port_used_at_ = ~Cycle{0};
  BusyUntil work_until_;  ///< census slots (register_census)
  BusyUntil arq_until_;
  BusyUntil builder_until_;
  BusyUntil flit_table_until_;
};

}  // namespace mac3d
