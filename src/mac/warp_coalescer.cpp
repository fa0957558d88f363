#include "mac/warp_coalescer.hpp"

#include <algorithm>
#include <cassert>

#include "check/invariants.hpp"
#include "common/bitutil.hpp"

namespace mac3d {

void WarpStats::collect(StatSet& out, const std::string& prefix) const {
  out.set(prefix + ".raw_in", static_cast<double>(raw_in));
  out.set(prefix + ".fences_in", static_cast<double>(fences_in));
  out.set(prefix + ".windows", static_cast<double>(windows));
  out.set(prefix + ".packets_out", static_cast<double>(packets_out));
  out.set(prefix + ".merged_lanes", static_cast<double>(merged_lanes));
  out.set(prefix + ".replays", static_cast<double>(replays));
  out.set(prefix + ".completions", static_cast<double>(completions()));
  out.set(prefix + ".coalescing_efficiency", coalescing_efficiency());
  out.set(prefix + ".avg_raw_latency_cycles", raw_latency_cycles.mean());
  for (const auto& [size, count] : packets_by_size) {
    out.set(prefix + ".packets_" + std::to_string(size) + "B",
            static_cast<double>(count));
  }
}

WarpCoalescer::WarpCoalescer(const SimConfig& config, HmcDevice& device)
    : config_(config),
      device_(device),
      queue_capacity_(config.queue_depth),
      lanes_(config.warp_lanes),
      window_cycles_(config.warp_window_cycles),
      ledger_(device, stats_) {
  config_.validate();
}

WarpCoalescer::~WarpCoalescer() = default;

bool WarpCoalescer::try_accept(const RawRequest& request, Cycle now) {
  if (pending_.size() >= queue_capacity_) return false;
  if (accepts_at_ == now && accepts_this_cycle_ >= 2) return false;
  if (accepts_at_ != now) {
    accepts_at_ = now;
    accepts_this_cycle_ = 0;
  }
  ++accepts_this_cycle_;
  pending_.push_back(Lane{request, now, false});
  work_until_.work(now);
  ledger_.accept(request, now);
  return true;
}

std::size_t WarpCoalescer::head_run(bool& terminated) const noexcept {
  std::size_t run = 0;
  terminated = false;
  while (run < pending_.size() && run < lanes_) {
    if (pending_.at(run).request.op == MemOp::kFence) {
      terminated = true;
      break;
    }
    ++run;
  }
  return run;
}

bool WarpCoalescer::window_ready(Cycle now) const noexcept {
  if (pending_.empty()) return false;
  const Lane& head = pending_.front();
  if (head.request.op == MemOp::kFence) return false;
  bool terminated = false;
  const std::size_t run = head_run(terminated);
  return run >= lanes_ || terminated ||
         now >= head.accepted + window_cycles_;
}

void WarpCoalescer::form_window(Cycle now) {
  bool terminated = false;
  const std::size_t run = head_run(terminated);
  window_.clear();
  window_served_ = 0;
  window_.reserve(run);
  for (std::size_t i = 0; i < run; ++i) {
    window_.push_back(pending_.front());
    pending_.pop_front();
  }
  ++stats_.windows;
  MAC3D_CHECK(ledger_.checks(), inv::kWarpWindowBound,
              !window_.empty() && window_.size() <= lanes_, now,
              "formed a window of " + std::to_string(window_.size()) +
                  " lanes against a cap of " + std::to_string(lanes_));
  work_until_.work(now);
}

bool WarpCoalescer::issue_iteration(Cycle now) {
  std::size_t leader = window_.size();
  for (std::size_t i = 0; i < window_.size(); ++i) {
    if (!window_[i].served) {
      leader = i;
      break;
    }
  }
  assert(leader < window_.size());
  const RawRequest lead = window_[leader].request;
  const Address block = align_down(lead.addr, config_.warp_block_bytes);
  const bool lead_store = lead.op == MemOp::kStore;
  const bool lead_atomic = lead.op == MemOp::kAtomic;

  // Lanes riding the leader's packet: same merge block, same operation
  // class. Atomics never merge (they carry read-modify-write semantics).
  std::vector<std::size_t> merged;
  merged.push_back(leader);
  if (!lead_atomic) {
    for (std::size_t i = leader + 1; i < window_.size(); ++i) {
      if (window_[i].served) continue;
      const RawRequest& req = window_[i].request;
      if (req.op == MemOp::kAtomic) continue;
      if ((req.op == MemOp::kStore) != lead_store) continue;
      if (align_down(req.addr, config_.warp_block_bytes) != block) continue;
      merged.push_back(i);
    }
  }

  Address lo = ~Address{0};
  Address hi = 0;
  for (const std::size_t i : merged) {
    const Address flit_addr = align_down(window_[i].request.addr, kFlitBytes);
    lo = std::min(lo, flit_addr);
    hi = std::max(hi, flit_addr);
  }
  HmcRequest request;
  request.addr = lo;
  request.data_bytes = static_cast<std::uint32_t>(hi - lo) + kFlitBytes;
  request.write = lead_store;
  request.atomic = lead_atomic;
  request.home_node = lead.node;
  const AddressMap& map = device_.address_map();
  for (const std::size_t i : merged) {
    const RawRequest& req = window_[i].request;
    const std::uint32_t flit = map.flit_of(map.local_addr(req.addr));
    request.targets.push_back(
        Target{req.tid, req.tag, static_cast<std::uint8_t>(flit)});
  }
  MAC3D_CHECK(ledger_.checks(), inv::kWarpPacketSpan,
              request.data_bytes <= config_.warp_block_bytes &&
                  align_down(request.addr, config_.warp_block_bytes) ==
                      align_down(request.addr + request.data_bytes - 1,
                                 config_.warp_block_bytes),
              now, "warp packet leaks across its merge block");
  if (!device_.can_accept(request, now)) return false;

  // Stamp the builder stages before submit(), which stamps the device
  // stages at once: lifecycle stamps in stage order.
  EventSink* const sink = ledger_.sink();
  MAC3D_OBS_STAMP(sink, Stage::kBuilderPick, lead.tid, lead.tag, now);
  for (std::size_t m = 1; m < merged.size(); ++m) {
    MAC3D_OBS_STAMP(sink, Stage::kMerge, window_[merged[m]].request.tid,
                    window_[merged[m]].request.tag, now);
  }
  const std::uint32_t packet_bytes = request.data_bytes;
  ledger_.submit(std::move(request), now);
  stats_.merged_lanes += merged.size() - 1;
  if (window_served_ > 0) ++stats_.replays;
  ++stats_.packets_by_size[packet_bytes];
  for (const std::size_t i : merged) window_[i].served = true;
  window_served_ += merged.size();
  if (window_served_ == window_.size()) {
    window_.clear();
    window_served_ = 0;
  }
  work_until_.work(now);
  return true;
}

void WarpCoalescer::tick(Cycle now) {
  ledger_.on_tick(now);
  // 1. Retire a head fence once the window and the device drained.
  if (unserved() == 0 && !pending_.empty() &&
      pending_.front().request.op == MemOp::kFence &&
      ledger_.in_flight() == 0) {
    const RawRequest& fence = pending_.front().request;
    ledger_.retire_fence(Target{fence.tid, fence.tag, 0}, now);
    pending_.pop_front();
    work_until_.work(now);
  }
  // 2. Move the head run into a window when full, fence-bounded or timed
  //    out.
  if (unserved() == 0 && window_ready(now)) form_window(now);
  // 3. One coalescing iteration; a device-refused packet retries next
  //    cycle.
  if (unserved() > 0) (void)issue_iteration(now);
}

const std::vector<CompletedAccess>& WarpCoalescer::drain(Cycle now) {
  const std::vector<CompletedAccess>& done = ledger_.drain(now);
  if (!done.empty()) work_until_.work(now);
  return done;
}

Cycle WarpCoalescer::next_event(Cycle now) const noexcept {
  if (idle()) return 0;
  if (ledger_.fence_ready()) return now;
  if (unserved() > 0) return now + 1;
  if (!pending_.empty()) {
    const Lane& head = pending_.front();
    if (head.request.op != MemOp::kFence) {
      bool terminated = false;
      const std::size_t run = head_run(terminated);
      Cycle wake = (run >= lanes_ || terminated)
                       ? now + 1
                       : std::max(head.accepted + window_cycles_, now + 1);
      if (ledger_.in_flight() != 0) {
        const Cycle completion = device_.next_completion();
        wake = std::min(wake, completion > now ? completion : now + 1);
      }
      return wake;
    }
    if (ledger_.in_flight() == 0) return now + 1;
  }
  const Cycle completion = device_.next_completion();
  return completion > now ? completion : now + 1;
}

void WarpCoalescer::attach_checks(CheckContext* context,
                                  const std::string& scope) {
  ledger_.attach_checks(context, scope);
}

}  // namespace mac3d
