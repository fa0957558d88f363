#include "arch/node.hpp"

#include <cassert>

#include "obs/obs.hpp"
#include "obs/profiler.hpp"

namespace mac3d {

Node::Node(const SimConfig& config, NodeId id,
           const std::vector<NodeId>* thread_owner,
           const std::vector<CoreId>* thread_core)
    : config_(config),
      id_(id),
      thread_owner_(thread_owner),
      thread_core_(thread_core) {
  // Heterogeneous systems (config.node_policies): this node's effective
  // policy is pinned into its own config copy before the path is built,
  // so everything downstream — metrics namespaces, census rows, check
  // scopes — sees the per-node choice.
  config_.policy = config.policy_for_node(id);
  device_ = std::make_unique<HmcDevice>(config_, id);
  path_ = make_memory_path(config_, *device_);
  router_ = std::make_unique<RequestRouter>(config_, device_->address_map(),
                                            id);
  cores_.reserve(config.cores);
  for (std::uint32_t c = 0; c < config.cores; ++c) {
    cores_.emplace_back(config, id, static_cast<CoreId>(c));
  }
}

void Node::add_thread(ThreadId tid, const std::vector<MemRecord>* records) {
  cores_.at(thread_core_->at(tid)).add_thread(tid, records);
}

void Node::attach_checks(CheckContext* context) {
  device_->attach_checks(context);
  path_->attach_checks(context, "node" + std::to_string(id_) + ".");
  router_->attach_checks(context);
}

void Node::attach_sink(EventSink* sink) {
  sink_ = sink;
  router_->attach_sink(sink);
  path_->attach_sink(sink);
  device_->attach_sink(sink);
}

void Node::register_census(ActivityCensus& census) const {
  const std::string prefix = "node" + std::to_string(id_) + ".";
  router_->register_census(census, prefix);
  path_->register_census(census, prefix);
  device_->register_census(census, prefix);
}

void Node::tick(Cycle now, Interconnect* fabric) {
  // 1. Interconnect arrivals.
  if (fabric != nullptr) {
    for (const RawRequest& request : fabric->deliver_requests(id_, now)) {
      MAC3D_OBS_HOP(sink_, Hop::kRequestRecv, request.tid, request.tag,
                    thread_owner_->at(request.tid), id_, now);
      pending_remote_.push_back(request);
    }
    // Retry remote requests the queue previously refused.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_remote_.size(); ++i) {
      if (!router_->route_remote(pending_remote_[i])) {
        pending_remote_[kept++] = pending_remote_[i];
      } else {
        router_->note_work(now);  // census: route_remote has no cycle param
      }
    }
    pending_remote_.resize(kept);
    for (const CompletedAccess& completion :
         fabric->deliver_completions(id_, now)) {
      // The fabric lane does not carry the sender; the tracer recovers the
      // true link from the matching response_send.
      MAC3D_OBS_HOP(sink_, Hop::kResponseRecv, completion.target.tid,
                    completion.target.tag, id_, id_, now);
      dispatch_completion(completion, now, nullptr);
    }
  }

  // 2. Cores issue (at most one reference per core per cycle).
  for (CoreModel& core : cores_) core.try_issue(now, *router_);

  // 3. Forward one outbound remote request to the fabric.
  if (fabric != nullptr && !router_->global_queue().empty()) {
    const RawRequest request = router_->global_queue().pop();
    const NodeId home = device_->address_map().node_of(request.addr);
    MAC3D_OBS_HOP(sink_, Hop::kRequestSend, request.tid, request.tag, id_,
                  home, now);
    fabric->send_request(request, home, now, id_);
  }

  // 4. Memory-path intake: one raw request per cycle.
  if (router_->has_path_request() && path_->can_accept()) {
    path_->accept(router_->pop_path_request(), now);
    router_->note_work(now);  // census: pop_path_request has no cycle param
  }

  // 5. Advance the memory path / device.
  path_->tick(now);

  // 6. Response routing (paper Sec. 3.3).
  for (const CompletedAccess& completion : path_->drain(now)) {
    dispatch_completion(completion, now, fabric);
  }
}

void Node::dispatch_completion(const CompletedAccess& completion, Cycle now,
                               Interconnect* fabric) {
  const NodeId owner = thread_owner_->at(completion.target.tid);
  if (owner != id_ && fabric != nullptr) {
    MAC3D_OBS_HOP(sink_, Hop::kResponseSend, completion.target.tid,
                  completion.target.tag, id_, owner, now);
    fabric->send_completion(completion, owner, now, id_);
    return;
  }
  assert(owner == id_ && "completion arrived at a foreign node");
  cores_.at(thread_core_->at(completion.target.tid))
      .on_complete(completion.target.tid, now);
  MAC3D_OBS_STAMP(sink_, Stage::kCoreComplete, completion.target.tid,
                  completion.target.tag, now);
  ++completions_delivered_;
  request_latency_.add(static_cast<double>(completion.completed -
                                           completion.accepted));
}

bool Node::finished() const noexcept {
  for (const CoreModel& core : cores_) {
    if (!core.finished()) return false;
  }
  return true;
}

bool Node::drained() const noexcept {
  return finished() && path_->idle() && !router_->has_path_request() &&
         router_->global_queue().empty() && pending_remote_.empty();
}

Cycle Node::next_activity_cycle(Cycle now) const noexcept {
  Cycle next = 0;
  const auto merge = [&next, now](Cycle candidate) {
    if (candidate == 0) return;  // that unit is drained
    if (candidate <= now) candidate = now + 1;
    if (next == 0 || candidate < next) next = candidate;
  };
  // Remote requests the router refused retry every cycle until routed.
  if (!pending_remote_.empty()) merge(now + 1);
  // Queued router work (MAC intake, outbound fabric forwarding).
  merge(router_->next_event(now));
  // The memory path's own oracle covers the device: its next_event folds
  // in the earliest in-flight device completion.
  merge(path_->next_event(now));
  // Cores that can issue (completion-blocked threads wake at the delivery
  // cycle, which the path/device oracle above already marks).
  for (const CoreModel& core : cores_) merge(core.next_issue_cycle(now));
  return next;
}

void Node::collect(StatSet& out, const std::string& prefix) const {
  device_->stats().collect(out, prefix + ".hmc");
  path_->collect(out, prefix);
  out.set(prefix + ".completions",
          static_cast<double>(completions_delivered_));
  out.set(prefix + ".avg_request_latency_cycles", request_latency_.mean());
  std::uint64_t spm_accesses = 0;
  std::uint64_t issued = 0;
  for (const CoreModel& core : cores_) {
    spm_accesses += core.spm_accesses();
    issued += core.issued();
  }
  out.set(prefix + ".spm_accesses", static_cast<double>(spm_accesses));
  out.set(prefix + ".core_requests", static_cast<double>(issued));
}

}  // namespace mac3d
