// HMCSim-style timed model of one 3D-stacked memory cube.
//
// The model follows the request path of an HMC 2.1 device as described in
// the paper: packets are serialized over one of `hmc_links` external links
// (selected by vault quadrant), pass through SerDes + vault controller,
// access one closed-page bank inside one of the interleaved vaults, and the
// response is serialized back. Every access pays the 32 B control overhead
// of the packetized protocol; every arrival at a busy bank counts as a bank
// conflict (Sec. 2.2.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"
#include "mem/bank.hpp"
#include "mem/link.hpp"
#include "mem/packet.hpp"

namespace mac3d {

class CheckContext;
class EventSink;
class HmcChecker;

/// Aggregate device counters.
struct HmcStats {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t atomics = 0;
  std::uint64_t bank_conflicts = 0;
  std::uint64_t refresh_stalls = 0;  ///< accesses delayed by a refresh
  std::uint64_t row_hits = 0;        ///< open-page mode row-buffer hits
  std::uint64_t data_bytes = 0;      ///< payload moved
  std::uint64_t link_bytes = 0;      ///< payload + control on the links
  std::uint64_t overhead_bytes = 0;  ///< control only (32 B per access)
  RunningStat latency_cycles;        ///< submit -> response available
  RunningStat packet_data_bytes;     ///< payload size distribution
  Histogram latency_hist{40};

  /// Measured Eq. 1 over the whole run.
  [[nodiscard]] double measured_bandwidth_efficiency() const noexcept {
    return link_bytes == 0
               ? 0.0
               : static_cast<double>(data_bytes) /
                     static_cast<double>(link_bytes);
  }

  void collect(StatSet& out, const std::string& prefix) const;
};

class HmcDevice {
 public:
  explicit HmcDevice(const SimConfig& config, NodeId node = 0);
  ~HmcDevice();
  HmcDevice(const HmcDevice&) = delete;
  HmcDevice& operator=(const HmcDevice&) = delete;

  /// Link-level back-pressure: false when the target link's request
  /// direction is backlogged beyond the injection-queue horizon.
  [[nodiscard]] bool can_accept(const HmcRequest& request,
                                Cycle now) const noexcept;

  /// Schedule a request submitted at `now`. Returns the completion cycle.
  /// The response is retrievable via drain() once `now >= completion`.
  Cycle submit(HmcRequest request, Cycle now);

  /// Pop all responses completed at or before `now`, in (completed, id)
  /// order. They move into a buffer the device reuses, valid until the
  /// next drain.
  const std::vector<HmcResponse>& drain(Cycle now);

  /// True when no undelivered response remains.
  [[nodiscard]] bool idle() const noexcept { return pending_.empty(); }

  /// Earliest completion among in-flight transactions (0 when idle).
  [[nodiscard]] Cycle next_completion() const noexcept {
    return pending_.empty() ? 0 : pending_.front().completed;
  }

  [[nodiscard]] std::size_t in_flight() const noexcept {
    return pending_.size();
  }

  [[nodiscard]] const HmcStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const AddressMap& address_map() const noexcept { return map_; }

  /// Per-link FLIT totals (request dir, response dir).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> link_flits() const;

  // ---- Cycle-sampler probes (docs/OBSERVABILITY.md) ----------------------
  /// Fraction of all banks busy (activating/moving data/precharging) at
  /// `now`.
  [[nodiscard]] double banks_busy_fraction(Cycle now) const noexcept;
  /// Fraction of one vault's banks busy at `now`.
  [[nodiscard]] double vault_busy_fraction(std::uint32_t vault,
                                           Cycle now) const noexcept;
  [[nodiscard]] std::uint32_t vault_count() const noexcept {
    return config_.vaults;
  }
  [[nodiscard]] std::uint32_t link_count() const noexcept {
    return static_cast<std::uint32_t>(links_.size());
  }
  /// Request-direction serialization backlog of one link, in cycles.
  [[nodiscard]] Cycle link_request_backlog(std::uint32_t link,
                                           Cycle now) const noexcept {
    return links_[link].request_backlog(now);
  }
  /// Cumulative FLITs moved by one link (both directions) — sampled as a
  /// monotone counter; consumers difference adjacent rows for utilization.
  [[nodiscard]] std::uint64_t link_flits_sent(std::uint32_t link) const noexcept {
    return links_[link].request_flits_sent() +
           links_[link].response_flits_sent();
  }

  // ---- Busy-until slots (census threshold rows) --------------------------
  // Every device activity row has the form "active iff now < until".
  // A bank's free_at never decreases (an access starts at
  // max(arrival, free_at)), so the largest free_at ever scheduled in a
  // vault is exactly "any bank in the vault is busy before this cycle";
  // submit() raises these slots from the submit cycle as banks are
  // scheduled, and each slot counts the busy cycles it covers, skipped
  // spans included — that is what keeps the census byte-identical
  // between the serial and event engines.
  /// Cycle the last busy bank frees (0 = no access since construction or
  /// reset).
  [[nodiscard]] Cycle banks_busy_until() const noexcept {
    return banks_until_.until;
  }
  /// Cycle one vault's last busy bank frees.
  [[nodiscard]] Cycle vault_busy_until(std::uint32_t vault) const noexcept {
    return vault_until_[vault].until;
  }

  /// Register this device's idle-cycle census rows under `prefix`
  /// (e.g. "node0."): `<prefix>banks`, `<prefix>vault<V>` and
  /// `<prefix>link<L>`, each a threshold row over the matching busy-until
  /// slot. Templated on the census (normally obs's ActivityCensus), so
  /// mem need not link obs.
  /// The device must outlive the census's observed run; seal the census
  /// before tearing the device down.
  template <typename Census>
  void register_census(Census& census, const std::string& prefix) const {
    census.add_threshold(prefix + "banks", &banks_until_);
    for (std::uint32_t v = 0; v < vault_count(); ++v) {
      census.add_threshold(prefix + "vault" + std::to_string(v),
                           &vault_until_[v]);
    }
    for (std::uint32_t l = 0; l < link_count(); ++l) {
      census.add_threshold(prefix + "link" + std::to_string(l),
                           &links_[l].request_slot());
    }
  }

  void reset();

  /// Enable model-invariant checking (docs/INVARIANTS.md §hmc). The
  /// context must outlive the device; pass nullptr to detach.
  void attach_checks(CheckContext* context);

  /// Deliberate model bugs for the invariant test suite.
  enum class Fault {
    kNone,
    kDropTarget,       ///< drop one merged target from the next response
    kInflateOverhead,  ///< charge one extra control FLIT on the next access
  };
  /// Arm a one-shot fault applied to the next submitted request.
  void inject_fault(Fault fault) noexcept { fault_ = fault; }

  /// Enable request-lifecycle telemetry (docs/OBSERVABILITY.md): stamps
  /// link_serialize and bank_access for every merged target of a packet
  /// that carries target identities. The sink must outlive the device;
  /// pass nullptr to detach.
  void attach_sink(EventSink* sink) noexcept { sink_ = sink; }

 private:
  /// Min-heap order of pending_: earliest completion, then lowest id.
  struct PendingGreater {
    bool operator()(const HmcResponse& a, const HmcResponse& b) const {
      return a.completed > b.completed || (a.completed == b.completed &&
                                           a.id > b.id);
    }
  };

  [[nodiscard]] std::uint32_t link_of(std::uint32_t vault) const noexcept {
    return vault / vaults_per_link_;
  }

  SimConfig config_;
  AddressMap map_;
  NodeId node_;
  std::uint32_t vaults_per_link_;
  std::vector<Bank> banks_;  ///< flat [vault][bank]
  std::vector<Link> links_;
  /// Max bank free_at per vault and over all banks; sized once and reset
  /// in place, so census rows may hold their addresses.
  std::vector<BusyUntil> vault_until_;
  BusyUntil banks_until_;
  std::vector<HmcResponse> pending_;  ///< heap under PendingGreater
  std::vector<HmcResponse> drained_;  ///< the last drain's responses
  HmcStats stats_;
  CheckContext* checks_ = nullptr;
  EventSink* sink_ = nullptr;
  std::unique_ptr<HmcChecker> checker_;
  Fault fault_ = Fault::kNone;
};

}  // namespace mac3d
