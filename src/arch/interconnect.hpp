// Node-to-node interconnect (paper Sec. 3): fixed-latency message channel
// carrying raw requests to remote nodes and completions back. The paper
// leaves the fabric unspecified ("not within the scope of this paper"); we
// model a constant per-hop latency with FIFO delivery per destination.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/invariants.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/request_ledger.hpp"
#include "obs/obs.hpp"

namespace mac3d {

class Interconnect {
 public:
  Interconnect(const SimConfig& config, std::uint32_t nodes)
      : hop_cycles_(config.remote_hop_cycles),
        request_lanes_(nodes),
        completion_lanes_(nodes),
        next_due_(nodes, 0),
        link_requests_(std::size_t{nodes} * nodes, 0),
        link_completions_(std::size_t{nodes} * nodes, 0) {}

  /// `src` is the sending node; a lane delivers in send order, which is
  /// node-tick order within a cycle.
  void send_request(const RawRequest& request, NodeId dest, Cycle now,
                    NodeId src = 0) {
    work_until_.work(now);
    if (consume_drop_fault()) return;
    enqueue(request_lanes_, link_requests_, src, dest, now + hop_cycles_,
            request);
  }

  void send_completion(const CompletedAccess& completion, NodeId dest,
                       Cycle now, NodeId src = 0) {
    work_until_.work(now);
    if (consume_drop_fault()) return;
    enqueue(completion_lanes_, link_completions_, src, dest,
            now + hop_cycles_, completion);
  }

  /// Pop all requests due at or before `now` destined to `dest` (FIFO).
  std::vector<RawRequest> deliver_requests(NodeId dest, Cycle now) {
    return deliver(request_lanes_, dest, now);
  }
  std::vector<CompletedAccess> deliver_completions(NodeId dest, Cycle now) {
    return deliver(completion_lanes_, dest, now);
  }

  /// Register the census row `fabric`, a threshold row over a work slot
  /// marked at sends and non-empty deliveries (docs/OBSERVABILITY.md).
  /// The fabric must outlive the census's observed run; seal the census
  /// before tearing it down.
  template <typename Census>
  void register_census(Census& census) const {
    census.add_threshold("fabric", &work_until_);
  }

  [[nodiscard]] bool idle() const noexcept {
    for (const auto& lane : request_lanes_) {
      if (!lane.empty()) return false;
    }
    for (const auto& lane : completion_lanes_) {
      if (!lane.empty()) return false;
    }
    return true;
  }

  /// Earliest pending delivery time across all lanes (0 when idle).
  [[nodiscard]] Cycle next_delivery() const noexcept {
    Cycle next = 0;
    for (const Cycle due : next_due_) {
      if (due != 0 && (next == 0 || due < next)) next = due;
    }
    return next;
  }

  /// Earliest pending delivery to `dest` across its request and completion
  /// lanes (0 when both are empty) — the event engine ticks a node whose
  /// own wake has not come only when this is due. O(1): kept current at
  /// every push and delivery, so the event engine's per-visited-cycle sweep
  /// never touches the lanes themselves.
  [[nodiscard]] Cycle next_delivery(NodeId dest) const noexcept {
    return next_due_[dest];
  }

  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] Cycle hop_cycles() const noexcept { return hop_cycles_; }

  /// Pending (sent, not yet delivered) messages destined to `dest` —
  /// sampler probe fodder.
  [[nodiscard]] std::size_t request_backlog(NodeId dest) const {
    return request_lanes_.at(dest).size();
  }
  [[nodiscard]] std::size_t completion_backlog(NodeId dest) const {
    return completion_lanes_.at(dest).size();
  }

  /// Requests / completions that entered a delivery lane over the
  /// directed link src -> dest, counted at send. A dropped message is not
  /// counted.
  [[nodiscard]] std::uint64_t link_requests(NodeId src,
                                            NodeId dest) const noexcept {
    return link_requests_[std::size_t{src} * request_lanes_.size() + dest];
  }
  [[nodiscard]] std::uint64_t link_completions(NodeId src,
                                               NodeId dest) const noexcept {
    return link_completions_[std::size_t{src} * request_lanes_.size() + dest];
  }
  [[nodiscard]] std::uint64_t sends() const noexcept { return sends_; }
  [[nodiscard]] std::uint64_t deliveries() const noexcept {
    return deliveries_;
  }

  /// Enable fabric checks (docs/INVARIANTS.md §fabric). Registers an
  /// end-of-run credit audit: sends must balance deliveries and every lane
  /// must have drained. The context must outlive the interconnect.
  void attach_checks(CheckContext* context) {
    checks_ = context;
    if (context == nullptr) return;
    context->on_finalize([this](CheckContext&) { check_drained(); });
  }

  /// Credit conservation (docs/INVARIANTS.md §fabric): a fixed-latency
  /// fabric neither drops nor duplicates, so lifetime sends equal lifetime
  /// deliveries once the lanes drain.
  void check_drained() {
    std::uint64_t queued = 0;
    for (const auto& lane : request_lanes_) queued += lane.size();
    for (const auto& lane : completion_lanes_) queued += lane.size();
    MAC3D_CHECK(checks_, inv::kFabricCredit,
                sends_ == deliveries_ + queued && queued == 0, 0,
                std::to_string(sends_) + " messages sent, " +
                    std::to_string(deliveries_) + " delivered, " +
                    std::to_string(queued) + " still in flight");
  }

  /// Deliberate model bug for the invariant test suite: silently drop the
  /// next message handed to the fabric (one-shot), breaching credit
  /// conservation.
  void inject_drop_next_message() noexcept { drop_next_ = true; }

 private:
  template <typename T>
  struct Message {
    Cycle due = 0;
    T payload;
  };

  /// One destination's messages of one kind, in due order.
  template <typename T>
  using Lane = std::deque<Message<T>>;

  /// Append to `dest`'s lane in `lanes`. Lanes are ordered by due time
  /// (constant hop latency), so the new message can lower `dest`'s next
  /// due cycle only when its lane was empty.
  template <typename T>
  void enqueue(std::vector<Lane<T>>& lanes, std::vector<std::uint64_t>& links,
               NodeId src, NodeId dest, Cycle due, T payload) {
    lanes.at(dest).push_back({due, std::move(payload)});
    if (next_due_[dest] == 0 || due < next_due_[dest]) next_due_[dest] = due;
    ++messages_;
    ++sends_;
    ++links[std::size_t{src} * lanes.size() + dest];
  }

  /// Pop every message due at or before `now` from `dest`'s lane in
  /// `lanes`.
  template <typename T>
  std::vector<T> deliver(std::vector<Lane<T>>& lanes, NodeId dest,
                         Cycle now) {
    Lane<T>& lane = lanes.at(dest);
    std::vector<T> out;
    while (!lane.empty() && lane.front().due <= now) {
      out.push_back(std::move(lane.front().payload));
      lane.pop_front();
    }
    if (out.empty()) return out;
    deliveries_ += out.size();
    work_until_.work(now);
    const auto& requests = request_lanes_[dest];
    const auto& completions = completion_lanes_[dest];
    const Cycle request = requests.empty() ? 0 : requests.front().due;
    const Cycle completion = completions.empty() ? 0 : completions.front().due;
    next_due_[dest] =
        request == 0 || (completion != 0 && completion < request) ? completion
                                                                  : request;
    return out;
  }

  /// One-shot drop fault, consumed at send.
  [[nodiscard]] bool consume_drop_fault() noexcept {
    if (!drop_next_) return false;
    drop_next_ = false;
    ++sends_;  // the sender spent the credit; the fabric lost the message
    return true;
  }

  Cycle hop_cycles_;
  std::uint64_t messages_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t deliveries_ = 0;
  std::vector<Lane<RawRequest>> request_lanes_;
  std::vector<Lane<CompletedAccess>> completion_lanes_;
  /// Per destination: the earliest due cycle across its two lanes (0 when
  /// both are empty) — next_delivery(dest).
  std::vector<Cycle> next_due_;
  bool drop_next_ = false;
  BusyUntil work_until_;  ///< census slot (register_census)
  CheckContext* checks_ = nullptr;
  /// Per directed link, indexed src * nodes + dest (link_requests()).
  std::vector<std::uint64_t> link_requests_;
  std::vector<std::uint64_t> link_completions_;
};

}  // namespace mac3d
