// MSHR-based fixed-granularity coalescer — the conventional Dynamic Memory
// Coalescing baseline of paper Sec. 2.3: a miss-handling architecture that
// merges outstanding requests to the same cache-line-sized block, always
// dispatching fixed 64 B transactions regardless of how many requests merge.
//
// Exposes the same cycle-level interface as MacCoalescer so the simulation
// driver can run either path over identical traces (ablation benches).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/hmc_device.hpp"
#include "mem/request_ledger.hpp"

namespace mac3d {

class CheckContext;
class EventSink;

/// raw_in, fences_in, packets_out (fixed-size transactions) and the
/// per-request latency come from AccessCounts (the ledger's counts).
struct MshrStats : AccessCounts {
  std::uint64_t merged = 0;        ///< requests merged into an existing entry
  std::uint64_t stalls_full = 0;   ///< cycles an allocation failed
};

class MshrCoalescer {
 public:
  /// `entries`: MSHR file size; `block_bytes`: fixed transaction size.
  MshrCoalescer(const SimConfig& config, HmcDevice& device,
                std::uint32_t entries = 32, std::uint32_t block_bytes = 64);
  ~MshrCoalescer();
  MshrCoalescer(const MshrCoalescer&) = delete;
  MshrCoalescer& operator=(const MshrCoalescer&) = delete;

  [[nodiscard]] bool can_accept() const noexcept;
  /// Dual-ported intake symmetric with MacCoalescer: one merge and one
  /// allocation per cycle. Returns false when rejected (retry next cycle).
  [[nodiscard]] bool try_accept(const RawRequest& request, Cycle now);
  void accept(const RawRequest& request, Cycle now);
  void tick(Cycle now);
  /// Completions at or before `now` (RequestLedger::drain); valid until
  /// the next drain.
  const std::vector<CompletedAccess>& drain(Cycle now);
  [[nodiscard]] bool idle() const noexcept;
  [[nodiscard]] Cycle next_event(Cycle now) const noexcept;

  [[nodiscard]] const MshrStats& stats() const noexcept { return stats_; }
  /// Live MSHR file entries (cycle-sampler probe).
  [[nodiscard]] std::size_t occupancy() const noexcept { return file_.size(); }
  /// Entries waiting to dispatch a transaction (cycle-sampler probe).
  [[nodiscard]] std::size_t dispatch_backlog() const noexcept {
    return dispatch_queue_.size();
  }

  /// Enable request/response conservation checking plus the MSHR
  /// occupancy-bound invariant (docs/INVARIANTS.md §cache). Same contract
  /// as MacCoalescer::attach_checks.
  void attach_checks(CheckContext* context, const std::string& scope = "mshr");

  /// Enable request-lifecycle telemetry (docs/OBSERVABILITY.md). The sink
  /// must outlive the coalescer; pass nullptr to detach.
  void attach_sink(EventSink* sink) noexcept { ledger_.attach_sink(sink); }

  /// Register the idle-cycle census row `<prefix>mshr`: a threshold row
  /// over a work slot marked whenever the file accepts, dispatches,
  /// retires a fence or completes (docs/OBSERVABILITY.md). Same contract
  /// as MacCoalescer::register_census.
  template <typename Census>
  void register_census(Census& census, const std::string& prefix) const {
    census.add_threshold(prefix + "mshr", &work_until_);
  }

  /// Deliberate model bug for the invariant test suite: let the next
  /// `n` allocations ignore the entry-count capacity test, overfilling
  /// the file (mshr.occupancy_bound must fire).
  void inject_capacity_overrun(std::uint32_t n) noexcept {
    inject_overrun_ = n;
  }

 private:
  struct Entry {
    Address block = 0;
    bool write = false;
    /// Every request merged so far — dispatch does not close the entry.
    std::vector<Target> targets;
  };

  static std::uint64_t entry_key(Address block, bool write) noexcept {
    return block | (write ? 1ull : 0ull);
  }

  SimConfig config_;
  HmcDevice& device_;
  std::uint32_t entries_;
  std::uint32_t block_bytes_;
  std::unordered_map<std::uint64_t, Entry> file_;  ///< key -> live entry
  std::deque<std::uint64_t> dispatch_queue_;       ///< keys awaiting dispatch
  std::unordered_map<TransactionId, std::uint64_t> in_flight_;
  std::unordered_set<std::uint64_t> atomic_keys_;
  std::deque<Target> fences_;  ///< accepted barriers, oldest first
  /// The targets of the entry whose response is draining.
  std::vector<Target> retired_targets_;
  std::uint64_t next_unique_ = 0;
  Cycle merge_port_used_at_ = ~Cycle{0};
  Cycle alloc_port_used_at_ = ~Cycle{0};
  BusyUntil work_until_;  ///< census slot (register_census)
  MshrStats stats_;
  RequestLedger ledger_;
  std::uint32_t inject_overrun_ = 0;
};

}  // namespace mac3d
