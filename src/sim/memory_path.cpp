#include "sim/memory_path.hpp"

#include "sim/path_adapters.hpp"

namespace mac3d {

MemoryPath::~MemoryPath() = default;

std::unique_ptr<MemoryPath> make_memory_path(const SimConfig& config,
                                             HmcDevice& device) {
  switch (config.policy) {
    case CoalescerPolicy::kRaw:
      return std::make_unique<RawAdapter>(config, device);
    case CoalescerPolicy::kMshr:
      return std::make_unique<MshrAdapter>(config, device);
    case CoalescerPolicy::kWarp:
      return std::make_unique<WarpAdapter>(config, device);
    case CoalescerPolicy::kMac:
      break;
  }
  return std::make_unique<MacAdapter>(config, device);
}

}  // namespace mac3d
