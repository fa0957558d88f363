// HMC external link model: serializes packet FLITs in each direction.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace mac3d {

/// One full-duplex link. Each direction is a serialization resource:
/// a packet of N FLITs occupies the direction for N * t_link_flit cycles.
class Link {
 public:
  explicit Link(std::uint32_t t_link_flit) : t_flit_(t_link_flit) {}

  /// Serialize a request packet arriving at `now`; returns the cycle the
  /// last FLIT has left the link (downstream arrival time).
  Cycle send_request(Cycle now, std::uint32_t flits) noexcept {
    const Cycle start = now > request_.until ? now : request_.until;
    request_.raise(now, start + static_cast<Cycle>(flits) * t_flit_);
    req_flits_ += flits;
    return request_.until;
  }

  /// Serialize a response packet that is ready at `ready`.
  Cycle send_response(Cycle ready, std::uint32_t flits) noexcept {
    const Cycle start = ready > resp_free_ ? ready : resp_free_;
    resp_free_ = start + static_cast<Cycle>(flits) * t_flit_;
    resp_flits_ += flits;
    return resp_free_;
  }

  /// Cycles of request-direction backlog beyond `now` (for back-pressure).
  [[nodiscard]] Cycle request_backlog(Cycle now) const noexcept {
    return request_.until > now ? request_.until - now : 0;
  }

  /// The request direction's busy-until slot: busy from a send's cycle
  /// until its last FLIT has left. The idle-cycle census reads it as a
  /// threshold row; the slot counts its busy cycles itself.
  [[nodiscard]] const BusyUntil& request_slot() const noexcept {
    return request_;
  }

  [[nodiscard]] std::uint64_t request_flits_sent() const noexcept {
    return req_flits_;
  }
  [[nodiscard]] std::uint64_t response_flits_sent() const noexcept {
    return resp_flits_;
  }

  void reset() noexcept {
    request_ = {};
    resp_free_ = 0;
    req_flits_ = resp_flits_ = 0;
  }

 private:
  std::uint32_t t_flit_;
  BusyUntil request_;
  Cycle resp_free_ = 0;
  std::uint64_t req_flits_ = 0;
  std::uint64_t resp_flits_ = 0;
};

}  // namespace mac3d
