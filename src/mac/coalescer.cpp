#include "mac/coalescer.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace mac3d {

void MacStats::collect(StatSet& out, const std::string& prefix) const {
  out.set(prefix + ".raw_in", static_cast<double>(raw_in));
  out.set(prefix + ".fences_in", static_cast<double>(fences_in));
  out.set(prefix + ".packets_out", static_cast<double>(packets_out));
  out.set(prefix + ".built_out", static_cast<double>(built_out));
  out.set(prefix + ".bypass_out", static_cast<double>(bypass_out));
  out.set(prefix + ".atomic_out", static_cast<double>(atomic_out));
  out.set(prefix + ".completions", static_cast<double>(completions));
  out.set(prefix + ".coalescing_efficiency", coalescing_efficiency());
  out.set(prefix + ".avg_raw_latency_cycles", raw_latency_cycles.mean());
  for (const auto& [size, count] : packets_by_size) {
    out.set(prefix + ".packets_" + std::to_string(size) + "B",
            static_cast<double>(count));
  }
}

MacCoalescer::MacCoalescer(const SimConfig& config, HmcDevice& device)
    : config_(config),
      device_(device),
      arq_(config, device.address_map()),
      builder_(config, device.address_map()),
      ledger_(device, stats_) {
  config_.validate();
}

MacCoalescer::~MacCoalescer() = default;

void MacCoalescer::attach_checks(CheckContext* context,
                                 const std::string& scope) {
  arq_.attach_checks(context);
  builder_.attach_checks(context);
  ledger_.attach_checks(context, scope);
}

bool MacCoalescer::try_accept(const RawRequest& request, Cycle now) {
  const bool merge_free = merge_port_used_at_ != now;
  const bool alloc_free = alloc_port_used_at_ != now;
  if (!merge_free && !alloc_free) return false;

  const ArqEntry* merged_into = nullptr;
  const Arq::InsertResult result =
      arq_.insert(request, now, merge_free, alloc_free, &merged_into);
  if (result == Arq::InsertResult::kRejected) return false;
  arq_until_.work(now);
  work_until_.work(now);
  ledger_.accept(request, now);
  if (result == Arq::InsertResult::kAllocated) {
    alloc_port_used_at_ = now;
    return true;
  }
  merge_port_used_at_ = now;
  EventSink* const sink = ledger_.sink();
  MAC3D_OBS_STAMP(sink, Stage::kMerge, request.tid, request.tag, now);
  if (sink != nullptr && merged_into != nullptr &&
      !merged_into->targets.empty()) {
    const Target& leader = merged_into->targets.front();
    sink->on_merge(request.tid, request.tag, leader.tid, leader.tag, now);
  }
  return true;
}

void MacCoalescer::pop_stage(Cycle now) {
  if (arq_.empty()) return;

  const ArqEntry& head = arq_.front();
  // Only entries destined for the Request Builder are bound to its 2-cycle
  // initiation interval (Sec. 4.4). B-bit bypass, atomic and fence entries
  // skip the builder ("bypassing other stages of the MAC", Sec. 4.1.2) and
  // may pop every cycle.
  const bool needs_builder = !head.is_fence && !head.is_atomic && !head.bypass;
  if (needs_builder && now < next_pop_at_) return;

  // An entry written this cycle cannot be read out the same cycle.
  if (head.allocated_at >= now && !head.is_fence) return;

  if (head.is_fence) {
    // A fence retires only once every earlier memory operation has fully
    // completed (Sec. 4.1): builder and issue queue drained, nothing in
    // flight in the device.
    if (builder_.empty() && issue_queue_.empty() &&
        ledger_.in_flight() == 0) {
      ledger_.retire_fence(arq_.pop().targets.front(), now);
      arq_until_.work(now);
      work_until_.work(now);
    }
    return;
  }

  if (head.bypass || head.is_atomic) {
    // B-bit / atomic entries skip the Request Builder and go straight to
    // the memory as single-FLIT raw transactions (Sec. 4.1.2).
    ArqEntry entry = arq_.pop();
    IssueItem item;
    item.request.addr = device_.address_map().row_base(entry.row) +
                        static_cast<Address>(entry.flits.first_set()) *
                            kFlitBytes;
    item.request.data_bytes = kFlitBytes;
    item.request.write = entry.is_store;
    item.request.atomic = entry.is_atomic;
    item.request.home_node = entry.home_node;
    item.request.targets = std::move(entry.targets);
    item.ready_at = now + 1;
    item.atomic = entry.is_atomic;
    item.bypass = !entry.is_atomic;
    issue_queue_.push_back(std::move(item));
    arq_until_.work(now);
    work_until_.work(now);
    return;
  }

  if (builder_.can_accept(now)) {
    ArqEntry entry = arq_.pop();
    if (EventSink* const sink = ledger_.sink(); sink != nullptr) {
      for (const Target& target : entry.targets) {
        sink->on_stage(Stage::kBuilderPick, target.tid, target.tag, now);
      }
    }
    builder_.accept(std::move(entry), now);
    next_pop_at_ = now + config_.arq_pop_interval;
    arq_until_.work(now);
    builder_until_.work(now);
    work_until_.work(now);
  }
}

void MacCoalescer::issue_stage(Cycle now) {
  // Move finished builder packets into the issue queue in build order.
  while (builder_.has_output(now)) {
    IssueItem item;
    item.request = builder_.pop_output(now);
    item.ready_at = now;
    if (EventSink* const sink = ledger_.sink(); sink != nullptr) {
      for (const Target& target : item.request.targets) {
        sink->on_stage(Stage::kFlitAlloc, target.tid, target.tag, now);
      }
    }
    issue_queue_.push_back(std::move(item));
    builder_until_.work(now);
    flit_table_until_.work(now);
    work_until_.work(now);
  }

  // Dispatch at most one packet per cycle, subject to link back-pressure.
  if (issue_queue_.empty()) return;
  IssueItem& head = issue_queue_.front();
  if (head.ready_at > now || !device_.can_accept(head.request, now)) return;

  const std::uint32_t size = head.request.data_bytes;
  ledger_.submit(std::move(head.request), now);
  ++stats_.packets_by_size[size];
  if (head.atomic) {
    ++stats_.atomic_out;
  } else if (head.bypass) {
    ++stats_.bypass_out;
  } else {
    ++stats_.built_out;
  }
  issue_queue_.pop_front();
  flit_table_until_.work(now);
  work_until_.work(now);
}

void MacCoalescer::tick(Cycle now) {
  ledger_.on_tick(now);
  pop_stage(now);
  issue_stage(now);
}

const std::vector<CompletedAccess>& MacCoalescer::drain(Cycle now) {
  const std::vector<CompletedAccess>& done = ledger_.drain(now);
  stats_.completions += done.size();
  if (!done.empty()) work_until_.work(now);
  return done;
}

bool MacCoalescer::idle() const noexcept {
  return arq_.empty() && builder_.empty() && issue_queue_.empty() &&
         ledger_.idle();
}

Cycle MacCoalescer::next_event(Cycle now) const noexcept {
  if (idle()) return 0;
  // Immediate work?
  if (ledger_.fence_ready()) return now;
  const std::uint64_t in_flight = ledger_.in_flight();
  Cycle next = ~Cycle{0};
  if (!arq_.empty()) {
    const ArqEntry& head = arq_.front();
    if (head.is_fence && !(builder_.empty() && issue_queue_.empty() &&
                           in_flight == 0)) {
      // Fence blocked on the device; wake at the next completion.
      if (device_.next_completion() != 0) {
        next = std::min(next, std::max(now + 1, device_.next_completion()));
      }
    } else if (head.is_fence || head.is_atomic || head.bypass) {
      next = std::min(next, now + 1);  // bypass pops are not builder-gated
    } else {
      next = std::min(next, std::max(now + 1, next_pop_at_));
    }
  }
  if (!builder_.empty()) {
    next = std::min(next, std::max(now + 1, builder_.next_output_at()));
  }
  if (!issue_queue_.empty()) {
    next = std::min(next, std::max(now + 1, issue_queue_.front().ready_at));
  }
  if (in_flight > 0 && device_.next_completion() != 0) {
    next = std::min(next, std::max(now + 1, device_.next_completion()));
  }
  return next == ~Cycle{0} ? now + 1 : next;
}

}  // namespace mac3d
