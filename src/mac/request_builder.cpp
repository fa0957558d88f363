#include "mac/request_builder.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "check/flit_checks.hpp"

namespace mac3d {

RequestBuilder::RequestBuilder(const SimConfig& config, const AddressMap& map)
    : map_(map),
      table_(config),
      groups_(config.builder_groups()),
      flits_per_row_(config.flits_per_row()) {}

void RequestBuilder::attach_checks(CheckContext* context) {
  checks_ = context;
  if (checks_ != nullptr) {
    // The table is immutable; validate its 2^groups capacity and every
    // entry's shape/coverage once at attach time.
    const std::uint32_t row_bytes = flits_per_row_ * kFlitBytes;
    check_flit_table(table_, row_bytes, row_bytes / groups_, *checks_);
  }
}

void RequestBuilder::accept(ArqEntry entry, Cycle now) {
  assert(can_accept(now));
  assert(!entry.is_fence && !entry.is_atomic);
  assert(!entry.flits.empty());

  const std::uint32_t pattern = entry.flits.group_pattern(groups_);
  PacketShape shape = table_.lookup(pattern);
  if (truncate_next_) {
    // Deliberate conservation bug (invariant test suite only).
    shape.size_bytes = std::max(kFlitBytes, shape.size_bytes / 2);
    truncate_next_ = false;
  }
  const std::size_t entry_targets = entry.targets.size();

  HmcRequest request;
  request.addr = map_.row_base(entry.row) + shape.offset_bytes;
  request.data_bytes = shape.size_bytes;
  request.write = entry.is_store;
  request.home_node = entry.home_node;
  request.targets = std::move(entry.targets);

  if (checks_ != nullptr) {
    check_built_packet(entry.flits, entry.row, entry_targets, request,
                       shape.offset_bytes, now, *checks_);
  }

  Built built;
  built.request = std::move(request);
  built.ready_at = now + kStage1Cycles + kStage2Cycles;
  out_.push_back(std::move(built));

  next_accept_at_ = now + kInitiationInterval;
  ++stats_.accepted;
  ++stats_.built;
  ++stats_.packets_by_size[shape.size_bytes];
}

HmcRequest RequestBuilder::pop_output([[maybe_unused]] Cycle now) {
  assert(has_output(now));
  HmcRequest request = std::move(out_.front().request);
  out_.pop_front();
  return request;
}

}  // namespace mac3d
