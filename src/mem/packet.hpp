// HMC packetized protocol accounting (paper Sec. 2.2.2).
//
// Every packet carries one FLIT (16 B) of control information (header +
// tail); a complete access (request + response) therefore pays a fixed
// 32 B of control overhead regardless of payload (Eq. 1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mac3d {

/// Unique id for an in-flight HMC transaction.
using TransactionId = std::uint64_t;

/// A request packet as dispatched to the 3D-stacked memory. May be a raw
/// (bypassed) single-FLIT request or a coalesced 64/128/256 B packet.
struct HmcRequest {
  TransactionId id = 0;
  Address addr = 0;              ///< start address (FLIT aligned)
  std::uint32_t data_bytes = kFlitBytes;  ///< payload size, multiple of 16 B
  bool write = false;
  bool atomic = false;
  NodeId home_node = 0;          ///< node whose cube services this request
  std::vector<Target> targets;   ///< raw requests merged into this packet
};

/// A response returned by the device.
struct HmcResponse {
  TransactionId id = 0;
  Address addr = 0;
  std::uint32_t data_bytes = 0;
  bool write = false;
  bool atomic = false;
  Cycle completed = 0;            ///< cycle at which the response is available
  std::vector<Target> targets;
};

/// Payload FLITs of a packet of `data_bytes`.
[[nodiscard]] constexpr std::uint32_t data_flits(
    std::uint32_t data_bytes) noexcept {
  return (data_bytes + kFlitBytes - 1) / kFlitBytes;
}

/// FLITs on the link for the *request* packet: reads carry control only,
/// writes carry control + data.
[[nodiscard]] constexpr std::uint32_t request_flits(std::uint32_t data_bytes,
                                                    bool write) noexcept {
  return 1 + (write ? data_flits(data_bytes) : 0);
}

/// FLITs on the link for the *response* packet.
[[nodiscard]] constexpr std::uint32_t response_flits(std::uint32_t data_bytes,
                                                     bool write) noexcept {
  return 1 + (write ? 0 : data_flits(data_bytes));
}

/// Total bytes moved on the link for one complete access.
[[nodiscard]] constexpr std::uint64_t access_link_bytes(
    std::uint32_t data_bytes, bool write) noexcept {
  return static_cast<std::uint64_t>(request_flits(data_bytes, write) +
                                    response_flits(data_bytes, write)) *
         kFlitBytes;
}

/// Eq. 1: bandwidth efficiency = data / (data + overhead), with the fixed
/// 32 B per-access control overhead.
[[nodiscard]] constexpr double bandwidth_efficiency(
    std::uint32_t data_bytes) noexcept {
  return static_cast<double>(data_bytes) /
         static_cast<double>(data_bytes + kAccessOverheadBytes);
}

/// Fraction of link bytes that is control overhead (1 - Eq. 1).
[[nodiscard]] constexpr double overhead_fraction(
    std::uint32_t data_bytes) noexcept {
  return 1.0 - bandwidth_efficiency(data_bytes);
}

}  // namespace mac3d
