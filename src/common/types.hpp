// Core value types shared by every module of the MAC reproduction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mac3d {

/// Physical byte address into the 3D-stacked memory space.
using Address = std::uint64_t;

/// Simulation time in CPU cycles (3.3 GHz by default, see SimConfig).
using Cycle = std::uint64_t;

/// A unit's busy-until slot (the idle-cycle census reads it,
/// docs/OBSERVABILITY.md §Idle-cycle census): the unit is busy at cycle
/// `c` iff some raise made at or before `c` reached past it. The slot
/// counts those cycles itself as it is raised, so no one walks it per
/// cycle. Raises must come at nondecreasing `now`, each `to` >= `now`.
struct BusyUntil {
  Cycle until = 0;              ///< the current busy span ends here
  std::uint64_t credited = 0;   ///< busy cycles covered by every raise

  /// Busy from `now` until `to`: counts the cycles this newly covers.
  void raise(Cycle now, Cycle to) noexcept {
    if (to <= until) return;
    credited += to - (until > now ? until : now);
    until = to;
  }
  /// The unit worked at `now`: busy at exactly that cycle.
  void work(Cycle now) noexcept { raise(now, now + 1); }
  /// Busy cycles before `end`, for any `end` at or after the last raise's
  /// `now`.
  [[nodiscard]] std::uint64_t active_before(Cycle end) const noexcept {
    return credited - (until > end ? until - end : 0);
  }
};

/// Hardware thread identifier (paper: 2 B => up to 64 K threads).
using ThreadId = std::uint16_t;

/// Per-thread transaction tag (paper: 2 B => up to 64 K transactions/thread).
using Tag = std::uint16_t;

/// Core index within a node.
using CoreId = std::uint8_t;

/// Node index within the NUMA system.
using NodeId = std::uint16_t;

/// Kind of a raw memory operation entering the MAC.
enum class MemOp : std::uint8_t {
  kLoad,    ///< read; coalescable (T bit = 0)
  kStore,   ///< write; coalescable (T bit = 1)
  kFence,   ///< memory fence; disables ARQ comparators until drained
  kAtomic,  ///< atomic RMW; bypasses coalescing entirely
};

[[nodiscard]] constexpr std::string_view to_string(MemOp op) noexcept {
  switch (op) {
    case MemOp::kLoad: return "load";
    case MemOp::kStore: return "store";
    case MemOp::kFence: return "fence";
    case MemOp::kAtomic: return "atomic";
  }
  return "?";
}

[[nodiscard]] constexpr bool is_coalescable(MemOp op) noexcept {
  return op == MemOp::kLoad || op == MemOp::kStore;
}

/// HMC protocol FLIT (FLow control unIT) size in bytes.
inline constexpr std::uint32_t kFlitBytes = 16;

/// Header + tail control overhead per *access* (request + response), bytes.
/// One FLIT of control on the request packet and one on the response.
inline constexpr std::uint32_t kAccessOverheadBytes = 32;

/// Largest request packet the HMC 2.1 protocol supports.
inline constexpr std::uint32_t kMaxPacketDataBytes = 256;

/// Scratchpad (SPM) address windows start here, above all main memory:
/// node address ranges stack from 0 upward, and SimConfig::validate()
/// keeps nodes x hmc_capacity at or below this base, so scratchpad and
/// main-memory addresses never collide.
inline constexpr Address kSpmRegionBase = Address{1} << 48;

/// A raw, uncoalesced memory request as produced by a core / trace.
///
/// Raw requests are FLIT-granular: the trace layer splits any access that
/// straddles a FLIT boundary before it reaches the MAC (Sec. 4.1: the FLIT
/// offset in bits 0..3 is ignored by the aggregator).
struct RawRequest {
  Address addr = 0;          ///< physical byte address
  MemOp op = MemOp::kLoad;   ///< operation kind
  std::uint8_t size = 8;     ///< access size in bytes (<= kFlitBytes)
  ThreadId tid = 0;          ///< originating hardware thread
  Tag tag = 0;               ///< per-thread transaction tag
  CoreId core = 0;           ///< originating core
  NodeId node = 0;           ///< originating node (NUMA)

  friend bool operator==(const RawRequest&, const RawRequest&) = default;
};

/// Identity of one merged raw request inside a coalesced packet
/// (paper Sec. 4.1.1: "target" = TID + tag + FLIT id, 4.5 B each).
struct Target {
  ThreadId tid = 0;
  Tag tag = 0;
  std::uint8_t flit = 0;  ///< FLIT index within the DRAM row

  friend bool operator==(const Target&, const Target&) = default;
};

/// Paper Sec. 4.1.1: each target occupies 4.5 B of ARQ entry storage.
inline constexpr double kTargetBytes = 4.5;

/// Collision-free packed (tid, tag) key for the per-request cycle maps.
/// Each component gets a full 32-bit lane, so the pack cannot alias even
/// if ThreadId/Tag are ever widened up to 32 bits; the static_asserts
/// turn any widening beyond that into a compile error instead of a
/// silent key collision (the 16-bit-shift pack this replaces aliased as
/// soon as a tag crossed 16 bits).
static_assert(sizeof(ThreadId) <= sizeof(std::uint32_t),
              "request_key packs ThreadId into a 32-bit lane");
static_assert(sizeof(Tag) <= sizeof(std::uint32_t),
              "request_key packs Tag into a 32-bit lane");

[[nodiscard]] constexpr std::uint64_t request_key(ThreadId tid,
                                                  Tag tag) noexcept {
  return (static_cast<std::uint64_t>(tid) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}

/// Which front-end turns raw requests into HMC packets (DESIGN.md
/// §policy). One enum consumed by SimConfig, Driver, Node and the CLI so
/// every layer names policies identically.
enum class CoalescerPolicy : std::uint8_t {
  kRaw,   ///< no coalescing: one 16 B transaction per raw request
  kMac,   ///< the paper's ARQ + request builder + FLIT table
  kMshr,  ///< cache-style MSHR file merging to fixed-size blocks
  kWarp,  ///< SIMT-style iterative leader/same-block lane merging
};

[[nodiscard]] constexpr std::string_view to_string(
    CoalescerPolicy policy) noexcept {
  switch (policy) {
    case CoalescerPolicy::kRaw: return "raw";
    case CoalescerPolicy::kMac: return "mac";
    case CoalescerPolicy::kMshr: return "mshr";
    case CoalescerPolicy::kWarp: return "warp";
  }
  return "?";
}

/// Parse a policy name ("raw"/"mac"/"mshr"/"warp"). Returns false and
/// leaves `out` untouched on an unknown name.
[[nodiscard]] constexpr bool parse_policy(std::string_view name,
                                          CoalescerPolicy& out) noexcept {
  if (name == "raw") {
    out = CoalescerPolicy::kRaw;
  } else if (name == "mac") {
    out = CoalescerPolicy::kMac;
  } else if (name == "mshr") {
    out = CoalescerPolicy::kMshr;
  } else if (name == "warp") {
    out = CoalescerPolicy::kWarp;
  } else {
    return false;
  }
  return true;
}

}  // namespace mac3d
