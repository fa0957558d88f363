#include "mac/arq.hpp"

#include <cassert>
#include <sstream>

#include "check/check.hpp"
#include "check/invariants.hpp"

namespace mac3d {

namespace {

std::string describe_entry(const ArqEntry& entry) {
  std::ostringstream out;
  out << "entry row=" << entry.row << " store=" << entry.is_store
      << " fence=" << entry.is_fence << " atomic=" << entry.is_atomic
      << " bypass=" << entry.bypass << " targets=" << entry.targets.size()
      << " flit_map=0x" << std::hex << entry.flits.raw();
  return out.str();
}

}  // namespace

Arq::Arq(const SimConfig& config, const AddressMap& map)
    : map_(map),
      capacity_(config.arq_entries),
      entry_bytes_(config.arq_entry_bytes),
      max_targets_(config.max_targets_per_entry()),
      flits_per_row_(config.flits_per_row()),
      fill_fast_enabled_(config.fill_fast_enabled) {}

Arq::InsertResult Arq::insert(const RawRequest& request, Cycle now,
                              bool allow_merge, bool allow_alloc,
                              const ArqEntry** merged_into) {
  if (request.op == MemOp::kFence) {
    if (!allow_alloc || full()) return InsertResult::kRejected;
    stats_.occupancy.add(static_cast<double>(entries_.size()));
    ArqEntry fence;
    fence.is_fence = true;
    fence.bypass = true;
    fence.allocated_at = now;
    fence.targets.emplace_back(request.tid, request.tag, 0);
    entries_.push_back(std::move(fence));
    ++fence_count_;
    ++stats_.inserted;
    ++stats_.fences;
    ++stats_.allocated;
    return InsertResult::kAllocated;
  }

  const Address local = map_.local_addr(request.addr);
  const std::uint64_t row = map_.row_of(local);
  const std::uint32_t flit = map_.flit_of(local);
  const bool is_store = request.op == MemOp::kStore;

  if (request.op == MemOp::kAtomic) {
    // Atomics are routed to the memory unmodified to preserve atomicity;
    // they occupy an entry (keeping fence ordering) but never merge.
    if (!allow_alloc || full()) return InsertResult::kRejected;
    stats_.occupancy.add(static_cast<double>(entries_.size()));
    ArqEntry amo;
    amo.row = row;
    amo.is_atomic = true;
    amo.bypass = true;
    amo.flits = FlitMap(flits_per_row_);
    amo.flits.set(flit);
    amo.targets.push_back(
        Target{request.tid, request.tag, static_cast<std::uint8_t>(flit)});
    amo.allocated_at = now;
    amo.raw_size = request.size;
    amo.home_node = map_.node_of(request.addr);
    entries_.push_back(std::move(amo));
    ++stats_.inserted;
    ++stats_.atomics;
    ++stats_.allocated;
    return InsertResult::kAllocated;
  }

  assert(is_coalescable(request.op));

  // Fill-fast latency hiding (Sec. 4.1): when the free-entry counter
  // *rises above* half the ARQ size (edge-triggered — e.g. at boot or
  // after an I/O-bound lull drains the queue), the next N incoming
  // requests skip the comparators and fill the available entries
  // directly, so aggregation restarts from a well-stocked queue.
  const std::size_t free_entries = capacity_ - entries_.size();
  const bool above_half = free_entries > capacity_ / 2;
  if (fill_fast_enabled_ && above_half && !was_above_half_ &&
      fill_fast_remaining_ == 0) {
    fill_fast_remaining_ = static_cast<std::uint32_t>(free_entries);
  }
  was_above_half_ = above_half;

  bool compare = allow_merge && fence_count_ == 0;
  const bool fill_fast_hit = fill_fast_remaining_ > 0;
  if (fill_fast_hit) compare = false;

  if (compare) {
    // All comparators fire simultaneously on (row | T) — a single compare
    // thanks to the T-bit address extension (Sec. 4.1.2).
    for (ArqEntry& entry : entries_) {
      if (entry.is_fence || entry.is_atomic || entry.row != row ||
          entry.is_store != is_store) {
        continue;
      }
      if (entry.targets.size() >= max_targets_) {
        ++stats_.merge_refused_capacity;
        continue;  // entry target storage exhausted; fall through
      }
      stats_.occupancy.add(static_cast<double>(entries_.size()));
      entry.flits.set(flit);
      entry.targets.push_back(
          Target{request.tid, request.tag, static_cast<std::uint8_t>(flit)});
      entry.bypass = false;  // >= 2 requests: B bit cleared
      ++stats_.inserted;
      ++stats_.merged;
      MAC3D_CHECK(checks_, inv::kArqFenceBlocksMerge, fence_count_ == 0, now,
                  "merge happened while " + std::to_string(fence_count_) +
                      " fence(s) pending: " + describe_entry(entry));
      MAC3D_CHECK(checks_, inv::kArqTBit,
                  is_coalescable(request.op) && entry.is_store == is_store,
                  now,
                  std::string("merged ") + std::string(to_string(request.op)) +
                      " into " + describe_entry(entry));
      MAC3D_CHECK(checks_, inv::kArqTargetCap,
                  entry.targets.size() <= max_targets_, now,
                  describe_entry(entry) + " exceeds max_targets=" +
                      std::to_string(max_targets_));
      if (merged_into != nullptr) *merged_into = &entry;
      return InsertResult::kMerged;
    }
  }

  if (!allow_alloc || full()) return InsertResult::kRejected;
  if (fill_fast_hit) {
    --fill_fast_remaining_;
    ++stats_.fill_fast_inserts;
  }
  stats_.occupancy.add(static_cast<double>(entries_.size()));
  ArqEntry entry;
  entry.row = row;
  entry.is_store = is_store;
  entry.bypass = true;  // single request so far
  entry.flits = FlitMap(flits_per_row_);
  entry.flits.set(flit);
  entry.targets.push_back(
      Target{request.tid, request.tag, static_cast<std::uint8_t>(flit)});
  entry.allocated_at = now;
  entry.raw_size = request.size;
  entry.home_node = map_.node_of(request.addr);
  entries_.push_back(std::move(entry));
  ++stats_.inserted;
  ++stats_.allocated;
  MAC3D_CHECK(checks_, inv::kArqOccupancy, entries_.size() <= capacity_, now,
              "occupancy " + std::to_string(entries_.size()) +
                  " exceeds capacity " + std::to_string(capacity_));
  return InsertResult::kAllocated;
}

ArqEntry Arq::pop() {
  assert(!entries_.empty());
  ArqEntry entry = std::move(entries_.front());
  entries_.pop_front();
  if (entry.is_fence) {
    assert(fence_count_ > 0);
    --fence_count_;
  } else {
    stats_.targets_per_entry.add(static_cast<double>(entry.targets.size()));
    stats_.popped_bypass += entry.bypass ? 1 : 0;
    if (checks_ != nullptr) check_popped_entry(entry);
  }
  ++stats_.popped;
  return entry;
}

// B-bit and FLIT-map legality of a non-fence entry leaving the queue
// (docs/INVARIANTS.md §arq).
void Arq::check_popped_entry(const ArqEntry& entry) {
  MAC3D_CHECK(checks_, inv::kArqBBit,
              entry.bypass == (entry.targets.size() == 1) &&
                  (!entry.is_atomic || entry.bypass),
              entry.allocated_at, describe_entry(entry));
  bool map_consistent = entry.flits.count() >= 1 &&
                        entry.flits.count() <= entry.targets.size();
  for (const Target& target : entry.targets) {
    if (target.flit >= flits_per_row_ || !entry.flits.test(target.flit)) {
      map_consistent = false;
    }
  }
  MAC3D_CHECK(checks_, inv::kArqFlitMapConsistent, map_consistent,
              entry.allocated_at, describe_entry(entry));
}

}  // namespace mac3d
