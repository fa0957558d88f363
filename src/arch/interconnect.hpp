// Node-to-node interconnect (paper Sec. 3): fixed-latency message channel
// carrying raw requests to remote nodes and completions back. The paper
// leaves the fabric unspecified ("not within the scope of this paper"); we
// model a constant per-hop latency with FIFO delivery per destination.
//
// The fabric is the only state shared between nodes, so it is the seam the
// parallel engine stages (docs/PARALLELISM.md): in staged mode every send
// lands in a per-source outbox (touched only by that node's shard), and
// commit_staged() merges the outboxes into the delivery lanes in source-
// node order at the barrier — exactly the order the serial engine pushes
// in, so lane contents (and therefore every downstream result) are
// bit-identical. Delivery stays safe during the concurrent phase because
// node `n` only ever pops its own lanes.
#pragma once

#include <atomic>
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
        outboxes_(nodes),
        link_requests_(std::size_t{nodes} * nodes, 0),
        link_completions_(std::size_t{nodes} * nodes, 0) {}

  /// `src` is the sending node — serial delivery order is node-tick order,
  /// and the staged engine reproduces it by committing outboxes in source
  /// order.
  void send_request(const RawRequest& request, NodeId dest, Cycle now,
                    NodeId src = 0) {
    MAC3D_OBS_ACTIVITY(last_work_, now);
    if (staged_) {
      outboxes_.at(src).requests.push_back({dest, now + hop_cycles_, request});
      return;
    }
    if (consume_drop_fault()) return;
    enqueue(request_lanes_, link_requests_, src, dest, now + hop_cycles_,
            request);
  }

  void send_completion(const CompletedAccess& completion, NodeId dest,
                       Cycle now, NodeId src = 0) {
    MAC3D_OBS_ACTIVITY(last_work_, now);
    if (staged_) {
      outboxes_.at(src).completions.push_back(
          {dest, now + hop_cycles_, completion});
      return;
    }
    if (consume_drop_fault()) return;
    enqueue(completion_lanes_, link_completions_, src, dest,
            now + hop_cycles_, completion);
  }

  /// Pop all requests due at or before `now` destined to `dest` (FIFO).
  /// During the parallel phase only node `dest`'s shard may call this.
  std::vector<RawRequest> deliver_requests(NodeId dest, Cycle now) {
    return deliver(request_lanes_, dest, now);
  }
  std::vector<CompletedAccess> deliver_completions(NodeId dest, Cycle now) {
    return deliver(completion_lanes_, dest, now);
  }

  // ---- Activity oracle (idle-cycle census, docs/OBSERVABILITY.md) --------
  /// Stamped at sends and non-empty deliveries. The fabric is the one
  /// component shards share during the parallel phase, so — unlike the
  /// shard-confined slots — this one is atomic; concurrent writers all
  /// store the same `now`, and the census reads only at serial points.
  [[nodiscard]] bool did_work_this_cycle(Cycle now) const noexcept {
    return last_work_.load(std::memory_order_relaxed) == now;
  }
  /// Earliest pending delivery (0 = drained) — the event-driven engine's
  /// wake-up oracle for the fabric.
  [[nodiscard]] Cycle next_activity_cycle(Cycle now) const noexcept {
    (void)now;
    return next_delivery();
  }

  // ---- Staged (parallel-engine) mode — docs/PARALLELISM.md ---------------
  /// Enter staged mode: sends buffer into per-source outboxes. Requires a
  /// hop latency of at least one cycle — with zero-hop delivery a serial
  /// engine can deliver a message to a later-ticking node within the same
  /// cycle, which no barrier schedule can reproduce.
  void begin_staged() noexcept { staged_ = true; }
  [[nodiscard]] bool staged() const noexcept { return staged_; }
  void end_staged() noexcept { staged_ = false; }

  /// Barrier commit: move every outbox entry into its delivery lane in
  /// source-node order, preserving each outbox's push order (= that node's
  /// serial send order). Runs on one thread at the barrier.
  void commit_staged() {
    for (std::size_t src = 0; src < outboxes_.size(); ++src) {
      Outbox& outbox = outboxes_[src];
      for (auto& message : outbox.requests) {
        if (consume_drop_fault()) continue;
        enqueue(request_lanes_, link_requests_, static_cast<NodeId>(src),
                message.dest, message.due, std::move(message.payload));
      }
      outbox.requests.clear();
      for (auto& message : outbox.completions) {
        if (consume_drop_fault()) continue;
        enqueue(completion_lanes_, link_completions_,
                static_cast<NodeId>(src), message.dest, message.due,
                std::move(message.payload));
      }
      outbox.completions.clear();
    }
  }

  [[nodiscard]] bool idle() const noexcept {
    for (const auto& lane : request_lanes_) {
      if (!lane.queue.empty()) return false;
    }
    for (const auto& lane : completion_lanes_) {
      if (!lane.queue.empty()) return false;
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
  /// lanes (0 when both are empty) — the event engines tick a node whose
  /// own wake has not come only when this is due. O(1): kept current at
  /// every push and delivery, so the engines' per-visited-cycle sweeps
  /// never touch the lanes themselves.
  [[nodiscard]] Cycle next_delivery(NodeId dest) const noexcept {
    return next_due_[dest];
  }

  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] Cycle hop_cycles() const noexcept { return hop_cycles_; }

  /// Pending (sent, not yet delivered) messages destined to `dest` —
  /// sampler probe fodder. Safe during the parallel phase only from node
  /// `dest`'s shard; System samples at serial points.
  [[nodiscard]] std::size_t request_backlog(NodeId dest) const {
    return request_lanes_.at(dest).queue.size();
  }
  [[nodiscard]] std::size_t completion_backlog(NodeId dest) const {
    return completion_lanes_.at(dest).queue.size();
  }

  /// Requests / completions that entered a delivery lane over the
  /// directed link src -> dest. Counted as a message enters its lane: at
  /// send() in serial mode and at commit_staged() (a serial point) in
  /// staged mode, so the counts are engine-invariant. A dropped message
  /// is not counted.
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
    std::uint64_t total = 0;
    for (const auto& lane : request_lanes_) total += lane.delivered;
    for (const auto& lane : completion_lanes_) total += lane.delivered;
    return total;
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
    for (const auto& lane : request_lanes_) queued += lane.queue.size();
    for (const auto& lane : completion_lanes_) queued += lane.queue.size();
    [[maybe_unused]] const std::uint64_t delivered = deliveries();
    MAC3D_CHECK(checks_, inv::kFabricCredit,
                sends_ == delivered + queued && queued == 0, 0,
                std::to_string(sends_) + " messages sent, " +
                    std::to_string(delivered) + " delivered, " +
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

  template <typename T>
  struct StagedMessage {
    NodeId dest = 0;
    Cycle due = 0;
    T payload;
  };

  template <typename T>
  struct Lane {
    std::deque<Message<T>> queue;
    std::uint64_t delivered = 0;  ///< lane-local: safe during the phase
  };

  struct Outbox {
    std::vector<StagedMessage<RawRequest>> requests;
    std::vector<StagedMessage<CompletedAccess>> completions;
  };

  /// Append to `dest`'s lane in `lanes`. Lanes are ordered by due time
  /// (constant hop latency), so the new message can lower `dest`'s next
  /// due cycle only when its lane was empty.
  template <typename T>
  void enqueue(std::vector<Lane<T>>& lanes, std::vector<std::uint64_t>& links,
               NodeId src, NodeId dest, Cycle due, T payload) {
    lanes.at(dest).queue.push_back({due, std::move(payload)});
    if (next_due_[dest] == 0 || due < next_due_[dest]) next_due_[dest] = due;
    ++messages_;
    ++sends_;
    ++links[std::size_t{src} * lanes.size() + dest];
  }

  /// Pop every message due at or before `now` from `dest`'s lane in
  /// `lanes`. Touches only `dest`'s lanes and next_due_ slot, so shards
  /// may deliver to their own nodes concurrently.
  template <typename T>
  std::vector<T> deliver(std::vector<Lane<T>>& lanes, NodeId dest,
                         Cycle now) {
    Lane<T>& lane = lanes.at(dest);
    std::vector<T> out;
    while (!lane.queue.empty() && lane.queue.front().due <= now) {
      out.push_back(std::move(lane.queue.front().payload));
      lane.queue.pop_front();
    }
    if (out.empty()) return out;
    lane.delivered += out.size();
    MAC3D_OBS_ACTIVITY(last_work_, now);
    const auto& requests = request_lanes_[dest].queue;
    const auto& completions = completion_lanes_[dest].queue;
    const Cycle request = requests.empty() ? 0 : requests.front().due;
    const Cycle completion = completions.empty() ? 0 : completions.front().due;
    next_due_[dest] =
        request == 0 || (completion != 0 && completion < request) ? completion
                                                                  : request;
    return out;
  }

  /// One-shot drop fault; consumed at the point a message would enter a
  /// lane (send in serial mode, commit in staged mode) so both engines
  /// lose the same message.
  [[nodiscard]] bool consume_drop_fault() noexcept {
    if (!drop_next_) return false;
    drop_next_ = false;
    ++sends_;  // the sender spent the credit; the fabric lost the message
    return true;
  }

  Cycle hop_cycles_;
  std::uint64_t messages_ = 0;
  std::uint64_t sends_ = 0;
  std::vector<Lane<RawRequest>> request_lanes_;
  std::vector<Lane<CompletedAccess>> completion_lanes_;
  /// Per destination: the earliest due cycle across its two lanes (0 when
  /// both are empty) — next_delivery(dest).
  std::vector<Cycle> next_due_;
  std::vector<Outbox> outboxes_;
  bool staged_ = false;
  bool drop_next_ = false;
  std::atomic<Cycle> last_work_{~Cycle{0}};  ///< census slot (see oracle)
  CheckContext* checks_ = nullptr;
  /// Per directed link, indexed src * nodes + dest (link_requests()).
  std::vector<std::uint64_t> link_requests_;
  std::vector<std::uint64_t> link_completions_;
};

}  // namespace mac3d
