#include "arch/system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/snapshot.hpp"
#include "sim/parallel.hpp"

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
  sink_ = sink;
  for (const auto& node : nodes_) node->attach_sink(sink);
}

void System::attach_metrics(MetricsRegistry* registry) {
  registry_ = registry;
  for (const auto& node : nodes_) node->attach_metrics(registry);
  fabric_->attach_metrics(registry);
}

void System::attach_census(ActivityCensus* census) {
  census_ = census;
  if (census == nullptr) return;
  for (const auto& node : nodes_) node->attach_census(*census);
  if (nodes_.size() > 1) census->add_component("fabric", *fabric_);
}

void System::register_probes() {
  if (sampler_ != nullptr) {
    sampler_->begin_run("system");
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
    snapshot_->begin_run("system");
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

void System::finalize_metrics(const SystemRunSummary& summary) {
  if (registry_ == nullptr) return;
  registry_->gauge("system.cycles").set(static_cast<double>(summary.cycles));
  registry_->gauge("system.avg_request_latency_cycles")
      .set(summary.avg_latency_cycles);
  if (census_ != nullptr) census_->export_metrics(*registry_);
  if (snapshot_ != nullptr) snapshot_->export_metrics(*registry_);
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

void System::validate_engine_config(const char* engine_name) const {
  if (nodes_.size() > 1 && config_.remote_hop_cycles == 0) {
    // A zero-hop fabric lets a serial engine deliver a message to a
    // later-ticking node within the sending cycle — unreproducible under
    // any barrier schedule, so every engine refuses it uniformly rather
    // than letting the serial engines silently diverge from the staged
    // ones (the equivalence grid relies on identical accept/reject).
    throw std::invalid_argument(std::string("System::") + engine_name +
                                " requires remote_hop_cycles >= 1 (got 0)");
  }
}

bool System::observe_cycle(Cycle now) {
  if (census_ != nullptr) {
    census_->observe(now);
    lap(profiler_, HostPhase::kTelemetry);
  }
  if (sampler_ == nullptr && snapshot_ == nullptr) return false;
  if (sampler_ != nullptr) sampler_->advance_to(now);
  if (snapshot_ != nullptr) snapshot_->advance_to(now);
  lap(profiler_, HostPhase::kSampler);
  // A fired watchdog abandons the run (summary.completed stays false) —
  // the only exit a stalled system has short of max_cycles.
  return snapshot_ != nullptr && snapshot_->watchdog_fired();
}

bool System::drained(const Interconnect* fabric) const {
  if (fabric != nullptr && !fabric->idle()) return false;
  for (const auto& node : nodes_) {
    if (!node->drained()) return false;
  }
  return true;
}

SystemRunSummary System::run(Cycle max_cycles) {
  validate_engine_config("run");
  Interconnect* fabric = nodes_.size() > 1 ? fabric_.get() : nullptr;
  register_probes();

  bool completed = false;
  Cycle now = 0;
  start_laps(profiler_);
  try {
    for (; now < max_cycles; ++now) {
      for (auto& node : nodes_) node->tick(now, fabric);
      lap(profiler_, HostPhase::kTick);
      if (observe_cycle(now)) break;
      if (drained(fabric)) {
        completed = true;
        ++now;
        break;
      }
    }
  } catch (...) {
    if (sampler_ != nullptr) sampler_->abort_run();
    if (snapshot_ != nullptr) snapshot_->abort_run();
    throw;
  }
  if (sampler_ != nullptr) sampler_->end_run(now);
  if (snapshot_ != nullptr) snapshot_->end_run(now);
  const SystemRunSummary summary = summarize(now, completed);
  finalize_metrics(summary);
  return summary;
}

/// Per-node wake scheduling for one event-engine run (docs/PARALLELISM.md
/// §event-driven engine). A node's state changes only in its own tick or
/// through its fabric lanes, and every hop takes at least one cycle, so a
/// node whose wake lies ahead and whose lanes hold nothing due by `now`
/// would tick as a no-op: it is left out, and its cached wake stays valid.
class System::NodeWakes {
 public:
  /// Nothing pending: no wake of its own and empty lanes.
  static constexpr Cycle kNever = ~Cycle{0};

  explicit NodeWakes(std::size_t nodes) : wake_(nodes, 0), due_at_(nodes, 0) {
    due_.reserve(nodes);
  }

  /// The nodes to tick at `now`, in node order: every node at the first
  /// visited cycle, afterwards those whose wake has come or that have a
  /// message due by `now`.
  const std::vector<std::size_t>& collect_due(Cycle now) {
    due_.clear();
    for (std::size_t i = 0; i < due_at_.size(); ++i) {
      if (due_at_[i] <= now) due_.push_back(i);
    }
    ticks_ += due_.size();
    return due_;
  }

  /// After the tick at `now` (and any staged commit): re-ask the nodes
  /// that ticked, fold each node's next delivery into its due cycle, and
  /// return the earliest due cycle over all nodes (kNever when nothing is
  /// pending anywhere).
  Cycle rearm(Cycle now, const std::vector<std::unique_ptr<Node>>& nodes,
              const Interconnect* fabric) {
    for (const std::size_t i : due_) {
      const Cycle next = nodes[i]->next_activity_cycle(now);
      wake_[i] = next == 0 ? kNever : std::max(next, now + 1);
    }
    Cycle earliest = kNever;
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

Cycle System::next_wake(Cycle now, const Interconnect* fabric,
                        NodeWakes& wakes, Cycle max_cycles) const {
  Cycle next = wakes.rearm(now, nodes_, fabric);
  // Nothing pending anywhere but not drained either (the caller already
  // checked): fall back to single-stepping rather than stalling.
  if (next == NodeWakes::kNever) next = now + 1;
  // Snapshot boundaries are mandatory landing cycles: never skip over
  // one, so every engine samples every window at identical state.
  if (snapshot_ != nullptr && snapshot_->next_boundary(now) < next) {
    next = snapshot_->next_boundary(now);
  }
  return next < max_cycles ? next : max_cycles;
}

void System::credit_skip(Cycle now, Cycle next) {
  if (next <= now + 1 || (census_ == nullptr && sampler_ == nullptr)) return;
  lap(profiler_, HostPhase::kTick);  // the drain check and the oracle sweep
  if (census_ != nullptr) {
    census_->skip_to(next);
    lap(profiler_, HostPhase::kTelemetry);
  }
  if (sampler_ != nullptr) {
    sampler_->advance_to(next - 1);
    lap(profiler_, HostPhase::kSampler);
  }
}

SystemRunSummary System::run_event(Cycle max_cycles) {
  validate_engine_config("run_event");
  Interconnect* fabric = nodes_.size() > 1 ? fabric_.get() : nullptr;
  register_probes();

  bool completed = false;
  Cycle now = 0;
  std::uint64_t visited = 0;
  NodeWakes wakes(nodes_.size());
  start_laps(profiler_);
  try {
    while (now < max_cycles) {
      ++visited;
      for (const std::size_t i : wakes.collect_due(now)) {
        nodes_[i]->tick(now, fabric);
      }
      lap(profiler_, HostPhase::kTick);
      if (observe_cycle(now)) break;
      if (drained(fabric)) {
        completed = true;
        ++now;
        break;
      }
      const Cycle next = next_wake(now, fabric, wakes, max_cycles);
      credit_skip(now, next);
      now = next;
    }
  } catch (...) {
    if (sampler_ != nullptr) sampler_->abort_run();
    if (snapshot_ != nullptr) snapshot_->abort_run();
    throw;
  }
  if (sampler_ != nullptr) sampler_->end_run(now);
  if (snapshot_ != nullptr) snapshot_->end_run(now);
  SystemRunSummary summary = summarize(now, completed);
  summary.visited_cycles = visited;
  summary.node_ticks = wakes.ticks();
  finalize_metrics(summary);
  return summary;
}

SystemRunSummary System::run_parallel(std::uint32_t threads,
                                      Cycle max_cycles) {
  validate_engine_config("run_parallel");
  Interconnect* fabric = nodes_.size() > 1 ? fabric_.get() : nullptr;
  ParallelStepper stepper(threads);
  stepper.attach_profiler(profiler_);
  if (profiler_ != nullptr) profiler_->set_worker_count(stepper.thread_count());

  // Per-node telemetry mailboxes: each shard stamps into its own buffer
  // during the concurrent phase; the buffers flush to the user's sink in
  // node order after the barrier — the serial engine's exact stamp stream.
  std::vector<BufferedSink> buffers(sink_ != nullptr ? nodes_.size() : 0);
  if (sink_ != nullptr) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i]->attach_sink(&buffers[i]);
    }
  }
  if (fabric != nullptr) fabric->begin_staged();
  register_probes();

  bool completed = false;
  Cycle now = 0;
  start_laps(profiler_);
  try {
    for (; now < max_cycles; ++now) {
      stepper.for_shards(nodes_.size(), [this, now, fabric](std::size_t i) {
        nodes_[i]->tick(now, fabric);
      });
      lap(profiler_, HostPhase::kTick);
      // Barrier: cross-shard effects apply in canonical order.
      if (fabric != nullptr) fabric->commit_staged();
      if (sink_ != nullptr) {
        for (BufferedSink& buffer : buffers) buffer.flush(*sink_);
      }
      lap(profiler_, HostPhase::kCommit);
      // Same serial point as run(): post-barrier, so census exports stay
      // byte-identical across engines.
      if (observe_cycle(now)) break;
      if (drained(fabric)) {
        completed = true;
        ++now;
        break;
      }
    }
  } catch (...) {
    // Re-point the nodes at the durable sink before the local buffers die
    // (kThrow-mode breaches unwind through here).
    if (sink_ != nullptr) {
      for (const auto& node : nodes_) node->attach_sink(sink_);
    }
    if (fabric != nullptr) fabric->end_staged();
    if (sampler_ != nullptr) sampler_->abort_run();
    if (snapshot_ != nullptr) snapshot_->abort_run();
    throw;
  }
  if (sink_ != nullptr) {
    for (const auto& node : nodes_) node->attach_sink(sink_);
  }
  if (fabric != nullptr) fabric->end_staged();
  if (sampler_ != nullptr) sampler_->end_run(now);
  if (snapshot_ != nullptr) snapshot_->end_run(now);
  const SystemRunSummary summary = summarize(now, completed);
  finalize_metrics(summary);
  return summary;
}

SystemRunSummary System::run_event_parallel(std::uint32_t threads,
                                            Cycle max_cycles) {
  validate_engine_config("run_event_parallel");
  Interconnect* fabric = nodes_.size() > 1 ? fabric_.get() : nullptr;
  ParallelStepper stepper(threads);
  stepper.attach_profiler(profiler_);
  if (profiler_ != nullptr) profiler_->set_worker_count(stepper.thread_count());

  std::vector<BufferedSink> buffers(sink_ != nullptr ? nodes_.size() : 0);
  if (sink_ != nullptr) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i]->attach_sink(&buffers[i]);
    }
  }
  if (fabric != nullptr) fabric->begin_staged();
  register_probes();

  bool completed = false;
  Cycle now = 0;
  std::uint64_t visited = 0;
  NodeWakes wakes(nodes_.size());
  start_laps(profiler_);
  try {
    while (now < max_cycles) {
      ++visited;
      // The due set was read from the lanes after the previous barrier's
      // commit, so it is the one the serial engine computes.
      const std::vector<std::size_t>& due = wakes.collect_due(now);
      stepper.for_shards(due.size(), [this, now, fabric, &due](std::size_t k) {
        nodes_[due[k]]->tick(now, fabric);
      });
      lap(profiler_, HostPhase::kTick);
      if (fabric != nullptr) fabric->commit_staged();
      if (sink_ != nullptr) {
        for (const std::size_t i : due) buffers[i].flush(*sink_);
      }
      lap(profiler_, HostPhase::kCommit);
      // Same serial point as every other engine: post-barrier.
      if (observe_cycle(now)) break;
      if (drained(fabric)) {
        completed = true;
        ++now;
        break;
      }
      // Post-commit serial point: the staged fabric's lanes are up to
      // date, so the jump target sees the same state the serial engine
      // would.
      const Cycle next = next_wake(now, fabric, wakes, max_cycles);
      credit_skip(now, next);
      now = next;
    }
  } catch (...) {
    if (sink_ != nullptr) {
      for (const auto& node : nodes_) node->attach_sink(sink_);
    }
    if (fabric != nullptr) fabric->end_staged();
    if (sampler_ != nullptr) sampler_->abort_run();
    if (snapshot_ != nullptr) snapshot_->abort_run();
    throw;
  }
  if (sink_ != nullptr) {
    for (const auto& node : nodes_) node->attach_sink(sink_);
  }
  if (fabric != nullptr) fabric->end_staged();
  if (sampler_ != nullptr) sampler_->end_run(now);
  if (snapshot_ != nullptr) snapshot_->end_run(now);
  SystemRunSummary summary = summarize(now, completed);
  summary.visited_cycles = visited;
  summary.node_ticks = wakes.ticks();
  finalize_metrics(summary);
  return summary;
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
