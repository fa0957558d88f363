#include "cache/mshr.hpp"

#include <algorithm>
#include <cassert>

#include "check/invariants.hpp"
#include "common/bitutil.hpp"
#include "obs/obs.hpp"

namespace mac3d {

MshrCoalescer::MshrCoalescer(const SimConfig& config, HmcDevice& device,
                             std::uint32_t entries, std::uint32_t block_bytes)
    : config_(config),
      device_(device),
      entries_(entries),
      block_bytes_(block_bytes),
      ledger_(device, stats_) {
  assert(is_pow2(block_bytes));
  assert(block_bytes >= kFlitBytes && block_bytes <= config.row_bytes);
}

MshrCoalescer::~MshrCoalescer() = default;

void MshrCoalescer::attach_checks(CheckContext* context,
                                  const std::string& scope) {
  ledger_.attach_checks(context, scope);
}

bool MshrCoalescer::can_accept() const noexcept {
  // Conservative: require a free entry (a merging request would not need
  // one, but the allocation decision must be guaranteed up front), and no
  // pending barrier.
  return fences_.empty() && file_.size() < entries_;
}

bool MshrCoalescer::try_accept(const RawRequest& request, Cycle now) {
  const bool merge_free = merge_port_used_at_ != now;
  const bool alloc_free = alloc_port_used_at_ != now;

  if (request.op == MemOp::kFence) {
    if (!alloc_free) return false;
    fences_.push_back(Target{request.tid, request.tag, 0});
    alloc_port_used_at_ = now;
    work_until_.work(now);
    ledger_.accept(request, now);
    return true;
  }
  if (!fences_.empty()) return false;  // strict barrier

  const std::uint32_t flit = device_.address_map().flit_of(
      device_.address_map().local_addr(request.addr));
  const Target target{request.tid, request.tag,
                      static_cast<std::uint8_t>(flit)};

  if (request.op == MemOp::kAtomic) {
    // Atomics bypass the MSHR file's merging entirely.
    if (!alloc_free || file_.size() >= entries_) return false;
    Entry entry;
    entry.block = align_down(request.addr, kFlitBytes);
    entry.write = true;
    entry.targets.push_back(target);
    const std::uint64_t key = (1ull << 63) | next_unique_++;
    file_.emplace(key, std::move(entry));
    dispatch_queue_.push_back(key);
    atomic_keys_.insert(key);
    alloc_port_used_at_ = now;
    work_until_.work(now);
    ledger_.accept(request, now);
    return true;
  }

  const Address block = align_down(request.addr, block_bytes_);
  const std::uint64_t key = entry_key(block, request.op == MemOp::kStore);
  const auto it = file_.find(key);
  if (it != file_.end()) {
    if (!merge_free) return false;
    it->second.targets.push_back(target);
    merge_port_used_at_ = now;
    work_until_.work(now);
    ++stats_.merged;
    ledger_.accept(request, now);
    EventSink* const sink = ledger_.sink();
    MAC3D_OBS_STAMP(sink, Stage::kMerge, request.tid, request.tag, now);
    if (sink != nullptr) {
      const Target& leader = it->second.targets.front();
      sink->on_merge(request.tid, request.tag, leader.tid, leader.tag, now);
    }
    return true;
  }

  const bool over_capacity = file_.size() >= entries_;
  if (!alloc_free || (over_capacity && inject_overrun_ == 0)) {
    ++stats_.stalls_full;
    return false;
  }
  if (over_capacity) --inject_overrun_;
  Entry entry;
  entry.block = block;
  entry.write = request.op == MemOp::kStore;
  entry.targets.push_back(target);
  file_.emplace(key, std::move(entry));
  dispatch_queue_.push_back(key);
  alloc_port_used_at_ = now;
  work_until_.work(now);
  MAC3D_CHECK(ledger_.checks(), inv::kMshrOccupancy,
              file_.size() <= entries_, now,
              "MSHR file occupancy " + std::to_string(file_.size()) +
                  " exceeds " + std::to_string(entries_) + " entries");
  ledger_.accept(request, now);
  return true;
}

void MshrCoalescer::accept(const RawRequest& request, Cycle now) {
  const bool accepted = try_accept(request, now);
  assert(accepted && "MshrCoalescer::accept rejected");
  (void)accepted;
}

void MshrCoalescer::tick(Cycle now) {
  ledger_.on_tick(now);
  // Retire a pending barrier once everything older has drained.
  if (!fences_.empty() && file_.empty() && dispatch_queue_.empty() &&
      ledger_.in_flight() == 0) {
    ledger_.retire_fence(fences_.front(), now);
    fences_.pop_front();
    work_until_.work(now);
  }

  // Dispatch one transaction per cycle.
  if (dispatch_queue_.empty()) return;
  const std::uint64_t key = dispatch_queue_.front();
  auto it = file_.find(key);
  assert(it != file_.end());
  Entry& entry = it->second;

  HmcRequest request;
  request.addr = entry.block;
  const bool is_atomic = atomic_keys_.count(key) != 0;
  request.data_bytes = is_atomic ? kFlitBytes : block_bytes_;
  request.write = entry.write;
  request.atomic = is_atomic;
  if (!device_.can_accept(request, now)) return;
  in_flight_.emplace(ledger_.submit(std::move(request), now), key);
  dispatch_queue_.pop_front();
  work_until_.work(now);
}

const std::vector<CompletedAccess>& MshrCoalescer::drain(Cycle now) {
  // An entry keeps merging while its packet is in flight, so the entry,
  // not the packet, names every request a response answers.
  const std::vector<CompletedAccess>& done = ledger_.drain(
      now, [this](const HmcResponse& response) -> const std::vector<Target>& {
        const auto flight = in_flight_.find(response.id);
        assert(flight != in_flight_.end());
        const auto it = file_.find(flight->second);
        assert(it != file_.end());
        retired_targets_.swap(it->second.targets);
        atomic_keys_.erase(flight->second);
        file_.erase(it);
        in_flight_.erase(flight);
        return retired_targets_;
      });
  if (!done.empty()) work_until_.work(now);
  return done;
}

bool MshrCoalescer::idle() const noexcept {
  return file_.empty() && dispatch_queue_.empty() && fences_.empty() &&
         ledger_.idle();
}

Cycle MshrCoalescer::next_event(Cycle now) const noexcept {
  if (idle()) return 0;
  // A pending fence retires on the first tick that finds the file empty
  // and nothing in flight; until then it waits on the device's next
  // completion like everything else.
  const bool fence_retires = !fences_.empty() && file_.empty() &&
                             ledger_.in_flight() == 0;
  if (ledger_.fence_ready() || !dispatch_queue_.empty() || fence_retires) {
    return now + 1;
  }
  const Cycle completion = device_.next_completion();
  return completion > now ? completion : now + 1;
}

}  // namespace mac3d
