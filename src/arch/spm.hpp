// Per-core scratchpad memory (paper Sec. 3): directly addressable,
// explicitly managed, no tags/TLB/coherence. Modeled as an address window
// per core with a fixed access latency; accesses inside the window never
// reach the MAC.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/types.hpp"

namespace mac3d {

/// First byte of the SPM window of (`node`, `core`).
[[nodiscard]] inline Address spm_window_base(const SimConfig& config,
                                             NodeId node,
                                             CoreId core) noexcept {
  const std::uint64_t index =
      static_cast<std::uint64_t>(node) * config.cores + core;
  return kSpmRegionBase + index * config.spm_bytes;
}

class Spm {
 public:
  Spm(const SimConfig& config, NodeId node, CoreId core)
      : base_(spm_window_base(config, node, core)),
        size_(config.spm_bytes),
        latency_(config.ns_to_cycles(config.spm_latency_ns)) {}

  [[nodiscard]] bool contains(Address addr) const noexcept {
    return addr >= base_ && addr < base_ + size_;
  }
  [[nodiscard]] Address base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] Cycle latency() const noexcept { return latency_; }

  /// Record an access; returns the cycle at which it completes.
  Cycle access(Cycle now, bool write) noexcept {
    ++accesses_;
    writes_ += write ? 1 : 0;
    return now + latency_;
  }

  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }

 private:
  Address base_;
  std::uint64_t size_;
  Cycle latency_;
  std::uint64_t accesses_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace mac3d
