#include "mac/warp_coalescer.hpp"

#include <algorithm>

#include "check/invariants.hpp"

namespace mac3d {

void WarpStats::collect(StatSet& out, const std::string& prefix) const {
  out.set(prefix + ".raw_in", static_cast<double>(raw_in));
  out.set(prefix + ".fences_in", static_cast<double>(fences_in));
  out.set(prefix + ".windows", static_cast<double>(windows));
  out.set(prefix + ".packets_out", static_cast<double>(packets_out));
  out.set(prefix + ".merged_lanes", static_cast<double>(merged_lanes));
  out.set(prefix + ".replays", static_cast<double>(replays));
  out.set(prefix + ".completions", static_cast<double>(completions));
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
      window_cycles_(config.warp_window_cycles) {
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
  MAC3D_OBS_ACTIVITY(last_work_, now);
  accept_cycle_.put(key(request), now);
  if (request.op == MemOp::kFence) {
    ++stats_.fences_in;
  } else {
    ++stats_.raw_in;
  }
  MAC3D_OBS_STAMP(sink_, Stage::kQueueInsert, request.tid, request.tag, now);
#if MAC3D_CHECKS_ENABLED
  if (conservation_ != nullptr) {
    conservation_->on_accept(request.tid, request.tag, request.op, now);
  }
#endif
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
  MAC3D_CHECK(checks_, inv::kWarpWindowBound,
              !window_.empty() && window_.size() <= lanes_, now,
              "formed a window of " + std::to_string(window_.size()) +
                  " lanes against a cap of " + std::to_string(lanes_));
  MAC3D_OBS_ACTIVITY(last_work_, now);
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
  MAC3D_CHECK(checks_, inv::kWarpPacketSpan,
              request.data_bytes <= config_.warp_block_bytes &&
                  align_down(request.addr, config_.warp_block_bytes) ==
                      align_down(request.addr + request.data_bytes - 1,
                                 config_.warp_block_bytes),
              now, "warp packet leaks across its merge block");
  if (!device_.can_accept(request, now)) return false;

  // Stamp the builder stages before submit(), which stamps the device
  // stages at once on an unstaged device: lifecycle stamps in stage order.
  MAC3D_OBS_STAMP(sink_, Stage::kBuilderPick, lead.tid, lead.tag, now);
  for (std::size_t m = 1; m < merged.size(); ++m) {
    MAC3D_OBS_STAMP(sink_, Stage::kMerge, window_[merged[m]].request.tid,
                    window_[merged[m]].request.tag, now);
  }
  const std::uint32_t packet_bytes = request.data_bytes;
  request.id = next_txn_++;
  device_.submit(std::move(request), now);
  ++outstanding_;
  ++stats_.packets_out;
  stats_.merged_lanes += merged.size() - 1;
  if (window_served_ > 0) ++stats_.replays;
  ++stats_.packets_by_size[packet_bytes];
  for (const std::size_t i : merged) window_[i].served = true;
  window_served_ += merged.size();
  if (window_served_ == window_.size()) {
    window_.clear();
    window_served_ = 0;
  }
  MAC3D_OBS_ACTIVITY(last_work_, now);
  return true;
}

void WarpCoalescer::tick(Cycle now) {
  last_cycle_ = now;
  // 1. Retire a head fence once the window and the device drained.
  if (unserved() == 0 && !pending_.empty() &&
      pending_.front().request.op == MemOp::kFence && outstanding_ == 0) {
    const Lane head = pending_.front();
    CompletedAccess done;
    done.target = Target{head.request.tid, head.request.tag, 0};
    done.fence = true;
    done.accepted = accept_cycle_.take(key(done.target), now);
    done.completed = now;
    ready_.push_back(done);
    pending_.pop_front();
    MAC3D_OBS_ACTIVITY(last_work_, now);
  }
  // 2. Move the head run into a window when full, fence-bounded or timed
  //    out.
  if (unserved() == 0 && window_ready(now)) form_window(now);
  // 3. One coalescing iteration; a device-refused packet retries next
  //    cycle.
  if (unserved() > 0) (void)issue_iteration(now);
}

std::vector<CompletedAccess> WarpCoalescer::drain(Cycle now) {
  std::vector<CompletedAccess> out;
  out.swap(ready_);
  for (const HmcResponse& response : device_.drain(now)) {
    --outstanding_;
    for (const Target& target : response.targets) {
      CompletedAccess done;
      done.target = target;
      done.write = response.write;
      done.completed = response.completed;
      done.accepted = accept_cycle_.take(key(target), response.completed);
      stats_.raw_latency_cycles.add(
          static_cast<double>(done.completed - done.accepted));
      ++stats_.completions;
      out.push_back(done);
    }
  }
  if (!out.empty()) MAC3D_OBS_ACTIVITY(last_work_, now);
#if MAC3D_OBS_ENABLED
  if (sink_ != nullptr) {
    for (const CompletedAccess& done : out) {
      sink_->on_stage(Stage::kResponseMatch, done.target.tid, done.target.tag,
                      done.completed);
    }
  }
#endif
#if MAC3D_CHECKS_ENABLED
  if (conservation_ != nullptr) {
    for (const CompletedAccess& done : out) {
      conservation_->on_complete(done.target.tid, done.target.tag, done.fence,
                                 now);
    }
  }
#endif
  return out;
}

Cycle WarpCoalescer::next_event(Cycle now) const noexcept {
  if (idle()) return 0;
  if (!ready_.empty()) return now;
  if (unserved() > 0) return now + 1;
  if (!pending_.empty()) {
    const Lane& head = pending_.front();
    if (head.request.op != MemOp::kFence) {
      bool terminated = false;
      const std::size_t run = head_run(terminated);
      Cycle wake = (run >= lanes_ || terminated)
                       ? now + 1
                       : std::max(head.accepted + window_cycles_, now + 1);
      if (outstanding_ != 0) {
        const Cycle completion = device_.next_completion();
        wake = std::min(wake, completion > now ? completion : now + 1);
      }
      return wake;
    }
    if (outstanding_ == 0) return now + 1;
  }
  const Cycle completion = device_.next_completion();
  return completion > now ? completion : now + 1;
}

void WarpCoalescer::attach_checks(CheckContext* context,
                                  const std::string& scope) {
  checks_ = context;
  if (context == nullptr) {
    conservation_.reset();
    return;
  }
  conservation_ = std::make_unique<ConservationChecker>(*context, scope);
  context->on_finalize([this](CheckContext&) {
    if (conservation_ != nullptr) conservation_->finalize(last_cycle_);
  });
}

}  // namespace mac3d
