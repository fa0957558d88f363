// Whole-system closed-loop simulator: `nodes` NUMA nodes (paper Fig. 4),
// each with cores + MAC + 3D-stacked memory, joined by an interconnect.
// Cores replay per-thread traces and stall on outstanding references; this
// is the execution-driven counterpart of the streaming driver in src/sim.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/interconnect.hpp"
#include "arch/node.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "obs/sampler.hpp"
#include "trace/trace.hpp"

namespace mac3d {

class ActivityCensus;
class HostProfiler;
class SnapshotStreamer;
enum class Engine;

struct SystemRunSummary {
  Cycle cycles = 0;
  bool completed = false;       ///< false when max_cycles was hit
  std::uint64_t requests = 0;   ///< core-issued main-memory references
  std::uint64_t completions = 0;
  double avg_latency_cycles = 0.0;
  /// Cycles the engine actually ticked (== cycles for the strict engine;
  /// the event engine's skip ratio is cycles / visited_cycles).
  /// Deliberately NOT in `stats`, so exports stay engine-invariant.
  std::uint64_t visited_cycles = 0;
  /// Node::tick calls (cycles x nodes for the strict engine; the event
  /// engine ticks only the nodes due at each visited cycle). Kept out of
  /// `stats` like visited_cycles.
  std::uint64_t node_ticks = 0;
  StatSet stats;
};

class System {
 public:
  explicit System(const SimConfig& config);

  /// Distribute the trace's threads across nodes and cores round-robin:
  /// thread t lives on node t % nodes, core (t / nodes) % cores.
  /// The trace must outlive the system.
  void attach_trace(const MemoryTrace& trace);

  /// Run until every thread drains (or `max_cycles`) on the strict cycle
  /// engine, the reference: every node ticks every cycle. Multi-node
  /// configs require remote_hop_cycles >= 1, on both engines: run_event's
  /// per-node wake relies on every hop taking at least one cycle, and
  /// run() refuses what run_event cannot reproduce.
  SystemRunSummary run(Cycle max_cycles = 2'000'000'000ULL);

  /// Event-driven fast-forward run (docs/PARALLELISM.md §event-driven
  /// engine): after each visited cycle the clock jumps to the minimum of
  /// every node's cached wake cycle and the fabric's next delivery,
  /// landing on every sampler and snapshot boundary; the census slots
  /// count the skipped cycles themselves. At a visited cycle only the
  /// nodes that are due tick: those whose wake has come or whose fabric
  /// lanes hold a message due by then (none, at a landing-only cycle).
  /// Bit-identical to run() — same cycles, stats, metrics, census —
  /// enforced by tests/test_parallel_equivalence.cpp.
  SystemRunSummary run_event(Cycle max_cycles = 2'000'000'000ULL);

  /// perf/ only: a forward to run_event, which the retired event-parallel
  /// engine's name now runs. ROADMAP item 1 deletes it.
  SystemRunSummary run_event_parallel(std::uint32_t /*threads*/,
                                      Cycle max_cycles = 2'000'000'000ULL) {
    return run_event(max_cycles);
  }

  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] Interconnect& fabric() noexcept { return *fabric_; }

  /// Enable model-invariant checking on every node and the fabric
  /// (docs/INVARIANTS.md). The context must outlive the system; run
  /// context.finalize() before destroying the system. Pass nullptr to
  /// detach.
  void attach_checks(CheckContext* context);

  /// Enable request-lifecycle telemetry on every node
  /// (docs/OBSERVABILITY.md). The sink must outlive the system; pass
  /// nullptr to detach.
  void attach_sink(EventSink* sink);

  /// Attach a periodic sampler: both engines register per-node
  /// router-occupancy and fabric-backlog probes and advance it at the
  /// serial point after every visited cycle, and the event engine lands
  /// on every boundary, so the CSV is engine-invariant. The sampler must
  /// outlive the system; pass nullptr to detach.
  void attach_sampler(CycleSampler* sampler) noexcept { sampler_ = sampler; }

  /// Attach an idle-cycle census (docs/OBSERVABILITY.md §profiler): each
  /// run registers every node's components plus the fabric, both engines
  /// observe it once per visited cycle at the same serial point, so
  /// census exports are engine-invariant, and the run seals it on exit;
  /// collect_metrics() exports its counts. The census must outlive the
  /// runs; pass nullptr to detach.
  void attach_census(ActivityCensus* census) noexcept { census_ = census; }

  /// Attach a windowed snapshot streamer (docs/OBSERVABILITY.md
  /// §streaming snapshots): both engines open a "system" run, register
  /// the reserved injected/completions counters (aggregated over nodes)
  /// plus a router-backlog gauge, advance the streamer at the common
  /// serial point, and the event engine treats window boundaries as
  /// mandatory landing cycles — the JSONL stream is byte-identical under
  /// both engines. A StallWatchdog attached to the streamer abandons the
  /// run the window it fires (summary.completed == false). The streamer
  /// must outlive the system; pass nullptr to detach.
  void attach_snapshot(SnapshotStreamer* snapshot) noexcept {
    snapshot_ = snapshot;
  }

  /// Attach host wall-clock attribution: both engines lap their tick /
  /// telemetry / sampler phases (one clock read per boundary, so the
  /// phases partition the loop's wall time). Host time never feeds back
  /// into simulated time — simulated results are identical with or
  /// without a profiler. Pass nullptr to detach.
  void attach_profiler(HostProfiler* profiler) noexcept {
    profiler_ = profiler;
  }

  /// The run report's `metrics` section (docs/OBSERVABILITY.md §Metric
  /// namespaces), read after the run that returned `summary` from the
  /// counters the routers, nodes and fabric keep anyway, plus the
  /// attached census rows and snapshot window gauges.
  void collect_metrics(const SystemRunSummary& summary, StatSet& out) const;

 private:
  class NodeWakes;

  /// The one cycle loop behind both engines (docs/PARALLELISM.md): kEngine
  /// picks the clock (step by one and tick every node, or jump to the next
  /// wake and tick the due nodes). The engine is a template argument so
  /// that the clock costs no branch per visited cycle.
  template <Engine kEngine>
  SystemRunSummary run_engine(Cycle max_cycles);
  /// Shared end-of-run accounting (node order, both engines).
  SystemRunSummary summarize(Cycle cycles, bool completed) const;
  /// The fabric (when present) and every node hold no work.
  [[nodiscard]] bool drained(const Interconnect* fabric) const;
  /// Per-node/fabric census rows and probe registration for the open run
  /// (no-op when detached).
  void register_probes();

  SimConfig config_;
  std::vector<NodeId> thread_owner_;
  std::vector<CoreId> thread_core_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Interconnect> fabric_;
  CycleSampler* sampler_ = nullptr;
  ActivityCensus* census_ = nullptr;
  HostProfiler* profiler_ = nullptr;
  SnapshotStreamer* snapshot_ = nullptr;
};

}  // namespace mac3d
