// Simulation configuration: every parameter of Table 1 plus the detailed
// timing/structure knobs of the HMC device, MAC and node models.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace mac3d {

/// Error thrown on invalid configuration values or parse failures.
class ConfigError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// All tunables of the simulated system. Defaults reproduce Table 1 of the
/// paper. Use parse_overrides()/apply_env() to adjust, then validate().
/// Every field is one config key: config.cpp's key table names it, gives
/// its accepted range and drives parsing, to_kv() and validate().
struct SimConfig {
  // ---- Node / cores (Table 1) -------------------------------------------
  std::uint32_t cores = 8;             ///< in-order cores per node
  double cpu_ghz = 3.3;                ///< CPU clock frequency
  std::uint64_t spm_bytes = 1u << 20;  ///< scratchpad per core (1 MB)
  double spm_latency_ns = 1.0;         ///< avg SPM access latency
  std::uint32_t nodes = 1;             ///< NUMA nodes in the system

  // ---- HMC device (Table 1 + Sec. 2.2) ----------------------------------
  std::uint32_t hmc_links = 4;                 ///< external links
  std::uint64_t hmc_capacity = 8ull << 30;     ///< 8 GB cube
  std::uint32_t row_bytes = 256;               ///< DRAM row (block) size
  std::uint32_t vaults = 32;                   ///< interleaved vaults
  std::uint32_t banks_per_vault = 16;          ///< 512 banks in an 8 GB cube
  std::uint32_t link_queue_depth = 32;         ///< per-link injection queue

  // HMC timing (in CPU cycles). Calibrated so an isolated 16 B read takes
  // ~93 ns at 3.3 GHz (Table 1 average HMC access latency); a unit test
  // asserts the calibration.
  std::uint32_t t_link_flit = 1;       ///< cycles/FLIT (HMC 2.1, 30 Gbps lanes)
  std::uint32_t t_serdes = 55;         ///< SerDes + controller, each way
  std::uint32_t t_vault_ctrl = 8;      ///< vault controller decode/schedule
  std::uint32_t t_bank_access = 180;   ///< ACT + CAS + data for closed page
  std::uint32_t t_bank_precharge = 46; ///< PRE before the bank is reusable
  std::uint32_t t_row_data_flit = 1;   ///< extra bank cycles per data FLIT
  // Per-bank refresh (staggered by the vault controllers): the bank is
  // unavailable for t_rfc every t_refi. Off by default (t_refi = 0) so
  // the Table-1 93 ns calibration is deterministic; enable with e.g.
  // t_refi=12870,t_rfc=528 (DRAM tREFI 3.9 us / tRFC 160 ns at 3.3 GHz).
  std::uint32_t t_refi = 0;
  std::uint32_t t_rfc = 528;
  /// Hypothetical open-page policy (the real HMC closes the row after
  /// every access — Sec. 2.2.1; this knob exists for the page-policy
  /// ablation that reproduces that argument).
  bool open_page = false;
  std::uint32_t t_bank_activate = 90;  ///< ACT (open-page mode)
  std::uint32_t t_bank_cas = 90;       ///< CAS + first data (open-page mode)

  // ---- MAC (Table 1 + Sec. 4) -------------------------------------------
  std::uint32_t arq_entries = 32;      ///< Aggregated Request Queue depth
  std::uint32_t arq_entry_bytes = 64;  ///< bytes of storage per ARQ entry
  std::uint32_t arq_pop_interval = 2;  ///< pop one entry every N cycles
  /// Smallest coalesced packet; the largest is one row (`row_bytes`).
  std::uint32_t builder_min_bytes = 64;
  /// Sec. 4.1 latency-hiding bypass ("fill-fast"): when the free-entry
  /// counter rises above half the ARQ size, the next N requests skip the
  /// comparators. The paper pitches it for I/O-bound phases and program
  /// start-up; with stall-on-reference cores the ARQ runs far below half
  /// occupancy and the mechanism would suppress aggregation entirely, so
  /// it defaults to off here (see the fill-fast ablation bench).
  bool fill_fast_enabled = false;

  // ---- Coalescer policy (DESIGN.md §policy) ------------------------
  /// Which front-end a Node places between router and HMC device. The
  /// streaming drivers take the policy as an argument instead; the CLI's
  /// --policy flag sets both.
  CoalescerPolicy policy = CoalescerPolicy::kMac;
  /// Heterogeneous per-node policy overrides for the full system:
  /// "<i>:<raw|mac|mshr|warp>" entries joined by ';' (e.g. "0:raw;2:warp").
  /// Listed nodes use their entry, unlisted nodes fall back to `policy`.
  /// Empty = homogeneous. The CLI's repeatable --node-policy flag builds
  /// this; the streaming drivers ignore it (they take a single policy).
  std::string node_policies;
  std::uint32_t mshr_entries = 32;      ///< MSHR file size (mshr policy)
  std::uint32_t mshr_block_bytes = 64;  ///< MSHR merge block (mshr policy)
  std::uint32_t warp_lanes = 8;         ///< lanes per warp window (warp policy)
  std::uint32_t warp_block_bytes = 64;  ///< same-block merge granule (warp)
  /// Max cycles a partially filled warp window waits for more lanes
  /// before it is released anyway (warp policy).
  std::uint32_t warp_window_cycles = 8;

  // ---- Interconnect (Sec. 3, NUMA) --------------------------------------
  std::uint32_t remote_hop_cycles = 120;   ///< node-to-node one-way latency
  std::uint32_t queue_depth = 64;          ///< local/remote/global queues

  // ---- Derived quantities ------------------------------------------------
  [[nodiscard]] std::uint32_t flits_per_row() const noexcept {
    return row_bytes / kFlitBytes;
  }
  [[nodiscard]] std::uint32_t builder_groups() const noexcept {
    return row_bytes / builder_min_bytes;
  }
  [[nodiscard]] std::uint32_t flits_per_group() const noexcept {
    return builder_min_bytes / kFlitBytes;
  }
  [[nodiscard]] std::uint64_t total_banks() const noexcept {
    return std::uint64_t{vaults} * banks_per_vault;
  }
  /// Max merged targets per ARQ entry (Sec. 5.3.3: (64 − 10) / 4.5 = 12).
  [[nodiscard]] std::uint32_t max_targets_per_entry() const noexcept;
  /// The policy node `node` runs: its node_policies entry if present,
  /// otherwise `policy`. Throws ConfigError on a malformed node_policies
  /// string (validate() rejects it up front).
  [[nodiscard]] CoalescerPolicy policy_for_node(std::uint32_t node) const;
  /// Convert nanoseconds to CPU cycles (rounding to nearest).
  [[nodiscard]] Cycle ns_to_cycles(double ns) const noexcept;
  /// Convert CPU cycles to nanoseconds.
  [[nodiscard]] double cycles_to_ns(Cycle cycles) const noexcept;

  /// Throws ConfigError when a key lies outside its accepted range or any
  /// parameter combination is inconsistent.
  void validate() const;

  /// Apply "key=value" overrides, e.g. {{"arq_entries", "64"}}. Unknown
  /// keys, malformed values and values outside the key's accepted range
  /// throw ConfigError (common/parse_number.hpp parses every number).
  void parse_overrides(const std::map<std::string, std::string>& kv);

  /// Parse a comma/space separated "k=v,k=v" override string.
  void parse_override_string(const std::string& text);

  /// Apply the MAC3D_CONFIG override string, if set.
  void apply_env();

  /// Human-readable dump in Table 1 style.
  [[nodiscard]] std::string to_table() const;

  /// Machine-readable snapshot: key -> JSON value token, one entry per
  /// parse_overrides() key (a round-trip through parse_overrides()
  /// reproduces this config). Used by the run report.
  [[nodiscard]] std::map<std::string, std::string> to_kv() const;
};

}  // namespace mac3d
