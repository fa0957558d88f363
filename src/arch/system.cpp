#include "arch/system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "obs/serial_point.hpp"
#include "sim/driver.hpp"

namespace mac3d {

System::System(const SimConfig& config) : config_(config) {
  config_.validate();
  fabric_ = std::make_unique<Interconnect>(config_, config_.nodes);
  nodes_.reserve(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    nodes_.push_back(std::make_unique<Node>(config_, static_cast<NodeId>(n),
                                            &thread_owner_, &thread_core_));
  }
}

void System::attach_checks(CheckContext* context) {
  for (const auto& node : nodes_) node->attach_checks(context);
  fabric_->attach_checks(context);
}

void System::attach_sink(EventSink* sink) {
  for (const auto& node : nodes_) node->attach_sink(sink);
}

void System::register_probes() {
  if (census_ != nullptr) {
    for (const auto& node : nodes_) node->register_census(*census_);
    if (nodes_.size() > 1) fabric_->register_census(*census_);
  }
  if (sampler_ != nullptr) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      Node* node = nodes_[i].get();
      const std::string prefix = "node" + std::to_string(i);
      sampler_->add_probe(prefix + "_local_queue", [node](Cycle) {
        return static_cast<double>(node->router().local_queue().size());
      });
      sampler_->add_probe(prefix + "_remote_queue", [node](Cycle) {
        return static_cast<double>(node->router().remote_queue().size());
      });
      sampler_->add_probe(prefix + "_global_queue", [node](Cycle) {
        return static_cast<double>(node->router().global_queue().size());
      });
    }
    if (nodes_.size() > 1) {
      Interconnect* fabric = fabric_.get();
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const NodeId dest = static_cast<NodeId>(i);
        sampler_->add_probe("fabric_req_backlog_n" + std::to_string(i),
                            [fabric, dest](Cycle) {
                              return static_cast<double>(
                                  fabric->request_backlog(dest));
                            });
        sampler_->add_probe("fabric_cmpl_backlog_n" + std::to_string(i),
                            [fabric, dest](Cycle) {
                              return static_cast<double>(
                                  fabric->completion_backlog(dest));
                            });
      }
    }
  }
  if (snapshot_ != nullptr) {
    snapshot_->add_counter(SnapshotStreamer::kInjectedCounter, [this] {
      std::uint64_t total = 0;
      for (const auto& node : nodes_) {
        for (std::size_t c = 0; c < node->core_count(); ++c) {
          total += node->core(c).issued();
        }
      }
      return total;
    });
    snapshot_->add_counter(SnapshotStreamer::kCompletionsCounter, [this] {
      std::uint64_t total = 0;
      for (const auto& node : nodes_) total += node->completions_delivered();
      return total;
    });
    snapshot_->add_gauge("router_backlog", [this] {
      std::size_t total = 0;
      for (const auto& node : nodes_) {
        total += node->router().local_queue().size() +
                 node->router().remote_queue().size() +
                 node->router().global_queue().size();
      }
      return static_cast<double>(total);
    });
    snapshot_->attach_census(census_);
  }
}

void System::collect_metrics(const SystemRunSummary& summary,
                             StatSet& out) const {
  for (const auto& node : nodes_) {
    const std::string name = "node" + std::to_string(node->id());
    const RequestRouter& router = node->router();
    out.set(name + ".router.routed", static_cast<double>(router.routed()));
    out.set(name + ".router.remote_out",
            static_cast<double>(router.remote_out()));
    out.set(name + ".router.remote_in",
            static_cast<double>(router.remote_in()));
    out.set(name + ".router.popped", static_cast<double>(router.popped()));
    out.set(name + ".completions",
            static_cast<double>(node->completions_delivered()));
  }
  // Node ids in link names are zero-padded to the width of the largest
  // id, so every directed link gets its own name: of 12 nodes, 1 -> 10 is
  // link0110 and 11 -> 0 is link1100.
  const std::size_t nodes = nodes_.size();
  const std::size_t width = std::to_string(nodes - 1).size();
  const auto id = [width](std::size_t node) {
    const std::string digits = std::to_string(node);
    return std::string(width - digits.size(), '0') + digits;
  };
  for (std::size_t src = 0; src < nodes; ++src) {
    for (std::size_t dest = 0; dest < nodes; ++dest) {
      if (src == dest) continue;
      const std::string link = "fabric.link" + id(src) + id(dest);
      const auto from = static_cast<NodeId>(src);
      const auto to = static_cast<NodeId>(dest);
      out.set(link + ".requests",
              static_cast<double>(fabric_->link_requests(from, to)));
      out.set(link + ".completions",
              static_cast<double>(fabric_->link_completions(from, to)));
    }
  }
  out.set("system.cycles", static_cast<double>(summary.cycles));
  out.set("system.avg_request_latency_cycles", summary.avg_latency_cycles);
  if (census_ != nullptr) census_->export_metrics(out);
  if (snapshot_ != nullptr) snapshot_->export_metrics(out);
}

void System::attach_trace(const MemoryTrace& trace) {
  const std::uint32_t threads = trace.threads();
  thread_owner_.resize(threads);
  thread_core_.resize(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    const NodeId node = static_cast<NodeId>(t % config_.nodes);
    const CoreId core =
        static_cast<CoreId>((t / config_.nodes) % config_.cores);
    thread_owner_[t] = node;
    thread_core_[t] = core;
    nodes_[node]->add_thread(static_cast<ThreadId>(t),
                             &trace.thread(static_cast<ThreadId>(t)));
  }
}

bool System::drained(const Interconnect* fabric) const {
  if (fabric != nullptr && !fabric->idle()) return false;
  for (const auto& node : nodes_) {
    if (!node->drained()) return false;
  }
  return true;
}

/// Per-node wake scheduling for the event clock (docs/PARALLELISM.md
/// §event-driven engine). A node's state changes only in its own tick or
/// through its fabric lanes, and every hop takes at least one cycle, so a
/// node whose wake lies ahead and whose lanes hold nothing due by `now`
/// would tick as a no-op: it is left out, and its cached wake stays valid.
class System::NodeWakes {
 public:
  explicit NodeWakes(std::size_t nodes)
      : wake_(nodes, 0), due_at_(nodes, 0) {
    due_.reserve(nodes);
  }

  /// Fill due() with the nodes to tick at `now`, in node order: every node
  /// at the first visited cycle, afterwards those whose wake has come or
  /// that have a message due by `now`.
  void collect_due(Cycle now) {
    due_.clear();
    for (std::size_t i = 0; i < due_at_.size(); ++i) {
      if (due_at_[i] <= now) due_.push_back(i);
    }
    ticks_ += due_.size();
  }
  [[nodiscard]] const std::vector<std::size_t>& due() const noexcept {
    return due_;
  }

  /// After the tick at `now`: re-ask the nodes that ticked, fold each
  /// node's next delivery into its due cycle, and return the earliest due
  /// cycle over all nodes (kNever when nothing is pending anywhere).
  Cycle rearm(Cycle now, const std::vector<std::unique_ptr<Node>>& nodes,
              const Interconnect* fabric) {
    for (const std::size_t i : due_) {
      const Cycle next = nodes[i]->next_activity_cycle(now);
      wake_[i] = next == 0 ? SerialPoint::kNever : std::max(next, now + 1);
    }
    Cycle earliest = SerialPoint::kNever;
    for (std::size_t i = 0; i < wake_.size(); ++i) {
      Cycle at = wake_[i];
      const Cycle delivery =
          fabric == nullptr ? 0 : fabric->next_delivery(static_cast<NodeId>(i));
      if (delivery != 0 && delivery < at) at = std::max(delivery, now + 1);
      due_at_[i] = at;
      earliest = std::min(earliest, at);
    }
    return earliest;
  }

  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }

 private:
  std::vector<Cycle> wake_;    ///< cached next_activity_cycle, floored
  std::vector<Cycle> due_at_;  ///< min(wake, next delivery), floored
  std::vector<std::size_t> due_;
  std::uint64_t ticks_ = 0;
};

template <Engine kEngine>
SystemRunSummary System::run_engine(Cycle max_cycles) {
  if (nodes_.size() > 1 && config_.remote_hop_cycles == 0) {
    // A zero-hop fabric delivers a message to a later-ticking node within
    // the sending cycle, after the event engine chose which nodes tick:
    // per-node wake needs every hop to take at least one cycle. Both
    // engines refuse it, so they accept and reject the same configs.
    throw std::invalid_argument(
        "System requires remote_hop_cycles >= 1 with several nodes (got 0)");
  }
  constexpr bool event = kEngine == Engine::kEvent;
  Interconnect* fabric = nodes_.size() > 1 ? fabric_.get() : nullptr;
  NodeWakes wakes(nodes_.size());
  SerialPoint serial(census_, sampler_, snapshot_, profiler_, "system");
  register_probes();

  bool completed = false;
  Cycle now = 0;
  std::uint64_t visited = 0;
  serial.start_laps();
  while (now < max_cycles) {
    ++visited;
    // The step clock ticks every node; the event clock only the due ones.
    // Either way in node order, so deliveries and stamps keep one order.
    if constexpr (event) {
      wakes.collect_due(now);
      for (const std::size_t i : wakes.due()) nodes_[i]->tick(now, fabric);
    } else {
      for (const auto& node : nodes_) node->tick(now, fabric);
    }
    // A fired watchdog abandons the run (summary.completed stays false) —
    // the only exit a stalled system has short of max_cycles.
    if (serial.observe(now)) break;
    if (drained(fabric)) {
      completed = true;
      ++now;
      break;
    }
    if constexpr (event) {
      now = serial.advance(now, wakes.rearm(now, nodes_, fabric), max_cycles);
    } else {
      ++now;
    }
  }
  serial.finish(now);
  SystemRunSummary summary = summarize(now, completed);
  if constexpr (event) {
    summary.visited_cycles = visited;
    summary.node_ticks = wakes.ticks();
  }
  return summary;
}

SystemRunSummary System::run(Cycle max_cycles) {
  return run_engine<Engine::kSerial>(max_cycles);
}

SystemRunSummary System::run_event(Cycle max_cycles) {
  return run_engine<Engine::kEvent>(max_cycles);
}

SystemRunSummary System::summarize(Cycle cycles, bool completed) const {
  SystemRunSummary summary;
  summary.cycles = cycles;
  summary.completed = completed;
  summary.visited_cycles = cycles;
  summary.node_ticks = cycles * nodes_.size();
  RunningStat latency;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = *nodes_[i];
    node.collect(summary.stats, "node" + std::to_string(i));
    summary.completions += node.completions_delivered();
    for (std::size_t c = 0; c < node.core_count(); ++c) {
      summary.requests += node.core(c).issued();
    }
    latency.merge(node.request_latency());
  }
  summary.avg_latency_cycles = latency.mean();
  summary.stats.set("system.cycles", static_cast<double>(summary.cycles));
  summary.stats.set("system.completed", summary.completed ? 1.0 : 0.0);
  return summary;
}

}  // namespace mac3d
