#include "sim/driver.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include <memory>

#include "cache/mshr.hpp"
#include "check/check.hpp"
#include "mac/coalescer.hpp"
#include "mac/warp_coalescer.hpp"
#include "mem/hmc_device.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/snapshot.hpp"
#include "sim/parallel.hpp"
#include "sim/raw_path.hpp"
#include "sim/tag_allocator.hpp"

namespace mac3d {

void DriverResult::collect(StatSet& out, const std::string& prefix) const {
  out.set(prefix + ".makespan_cycles", static_cast<double>(makespan));
  out.set(prefix + ".raw_requests", static_cast<double>(raw_requests));
  out.set(prefix + ".packets", static_cast<double>(packets));
  out.set(prefix + ".completions", static_cast<double>(completions));
  out.set(prefix + ".bank_conflicts", static_cast<double>(bank_conflicts));
  out.set(prefix + ".data_bytes", static_cast<double>(data_bytes));
  out.set(prefix + ".link_bytes", static_cast<double>(link_bytes));
  out.set(prefix + ".overhead_bytes", static_cast<double>(overhead_bytes));
  out.set(prefix + ".coalescing_efficiency", coalescing_efficiency());
  out.set(prefix + ".bandwidth_efficiency", bandwidth_efficiency());
  out.set(prefix + ".avg_latency_cycles", avg_latency_cycles);
  out.set(prefix + ".avg_packet_bytes", avg_packet_bytes);
  if (checks_run > 0) {
    out.set(prefix + ".checks_run", static_cast<double>(checks_run));
    out.set(prefix + ".check_violations",
            static_cast<double>(check_violations));
  }
}

namespace {

constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

struct LoopResult {
  Cycle makespan = 0;       ///< cycle of the last completion
  std::uint64_t completions = 0;  ///< data records + retired fences
};

/// The telemetry a feed loop advances at its serial point, resolved once
/// per run (all null under MAC3D_OBS=OFF), plus the host profiler's laps.
/// Every feed loop runs the same cycle tail through it: observe_cycle()
/// after the tick/barrier/drain, then advance() to the next cycle.
class LoopTelemetry {
 public:
  LoopTelemetry(const DriveOptions& options, const LoopResult& result,
                bool event_engine)
      : event_engine_(event_engine) {
#if MAC3D_OBS_ENABLED
    census_ = options.census;
    profiler_ = options.profiler;
    sampler_ = options.sampler;
    snapshot_ = options.snapshot;
#else
    (void)options;
#endif
    if (snapshot_ != nullptr) {
      // The loop owns the completion count, so the reserved completions
      // counter registers here; the run_* wrappers register the rest.
      snapshot_->add_counter(SnapshotStreamer::kCompletionsCounter,
                             [&result] { return result.completions; });
    }
    start_laps(profiler_);
  }

  void mark_feeder(Cycle now) const {
    if (census_ != nullptr) census_->mark_feeder(now);
  }
  void lap(HostPhase phase) const { mac3d::lap(profiler_, phase); }

  /// Serial point: the cycle's work (intake, tick, barrier, drain) is
  /// done. True when the stall watchdog fired — the run is abandoned here,
  /// the only exit a livelocked pipeline has.
  bool observe_cycle(Cycle now) const {
    lap(HostPhase::kTick);
    if (census_ != nullptr) {
      census_->observe(now);
      lap(HostPhase::kTelemetry);
    }
    if (sampler_ == nullptr && snapshot_ == nullptr) return false;
    if (sampler_ != nullptr) sampler_->advance_to(now);
    if (snapshot_ != nullptr) snapshot_->advance_to(now);
    lap(HostPhase::kSampler);
    return snapshot_ != nullptr && snapshot_->watchdog_fired();
  }

  /// The cycle after `now`. The strict cycle engines always step one
  /// cycle (the reference semantics); the event engines jump to the
  /// earliest of `feed_next` (the feeder's next arrival, kNever for none)
  /// and the path's next_event oracle (0 when idle), never over a
  /// snapshot boundary — those are mandatory landing cycles, so every
  /// engine samples every window at identical state. The skipped
  /// span is credited to the census and sampler BEFORE the landing tick,
  /// which can raise device busy thresholds and would falsely mark the
  /// span active. `feed_next` is only evaluated on the event engines.
  template <typename Path, typename FeedNext>
  Cycle advance(Cycle now, const Path& path, FeedNext&& feed_next) const {
    if (!event_engine_) return now + 1;
    Cycle next = feed_next();
    const Cycle path_next = path.next_event(now);
    if (path_next > now) next = std::min(next, path_next);
    next = (next == kNever || next <= now) ? now + 1 : next;
    if (snapshot_ != nullptr) {
      next = std::min(next, snapshot_->next_boundary(now));
    }
    if (next > now + 1 && (census_ != nullptr || sampler_ != nullptr)) {
      lap(HostPhase::kTick);  // the wake-up oracle
      if (census_ != nullptr) {
        census_->skip_to(next);
        lap(HostPhase::kTelemetry);
      }
      if (sampler_ != nullptr) {
        sampler_->advance_to(next - 1);
        lap(HostPhase::kSampler);
      }
    }
    return next;
  }

 private:
  bool event_engine_;
  ActivityCensus* census_ = nullptr;
  HostProfiler* profiler_ = nullptr;
  CycleSampler* sampler_ = nullptr;
  SnapshotStreamer* snapshot_ = nullptr;
};

/// Trace streaming (paper Sec. 5.1): every thread's memory instruction
/// stream arrives open-loop, paced only by its recorded compute gaps (the
/// instruction stream the RISC-V tracer produced); the interleaved
/// arrivals are presented round-robin and the path absorbs as many as its
/// intake ports allow per cycle (the MAC: one merge + one allocation).
/// Back-pressure queues arrivals; it never slows the cores down.
/// A thread's (tid, tag) pair is its request identity on the response path
/// (the paper's 2 B tag field, Sec. 4.1.1). The open-loop feeder must not
/// reissue a tag while its predecessor is still in flight, or response
/// matching becomes ambiguous — and since completions are out of order
/// (bank scheduling), one long-lived request can outlive 65 K newer ones,
/// so each thread draws from a finite MSHR-style TagAllocator pool and
/// stalls only on pool exhaustion (the invariant fuzz suite caught the
/// ambiguity on bank-conflict-heavy traces back when tags were a bare
/// wrapping cursor). `barrier` runs once per cycle right after the path
/// ticks — the parallel engine commits its staged device work there; the
/// serial engine passes a no-op.
template <typename Path, typename Barrier>
LoopResult run_streaming(Path& path, const MemoryTrace& trace,
                         const SimConfig& config, std::uint32_t threads,
                         const DriveOptions& options, Barrier&& barrier) {
  struct ThreadCursor {
    std::size_t next = 0;
    Cycle arrive_at = 0;  ///< when the current record reaches the queue
    bool stamped = false;  ///< core_issue emitted for the current record
  };
  const bool charge_gaps = options.charge_gaps;

  threads = std::min(threads, trace.threads());
  std::vector<ThreadCursor> cursors(threads);
  std::vector<TagAllocator> tags(threads, TagAllocator(options.tag_pool));
  std::uint64_t records_left = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    const auto& records = trace.thread(static_cast<ThreadId>(t));
    records_left += records.size();
    if (!records.empty() && charge_gaps) {
      cursors[t].arrive_at = records.front().gap;
    }
  }

  Cycle now = 0;
  LoopResult result;
  std::uint32_t turn = 0;
  const Cycle livelock_at = options.inject_livelock_at;
  LoopTelemetry telemetry(options, result, engine_is_event(options.engine));

  while (records_left > 0 || !path.idle()) {
    // Intake: present arrived records round-robin until the path's intake
    // ports reject one (or no arrival is pending).
    bool intake_open = records_left > 0;
    while (intake_open) {
      bool found = false;
      for (std::uint32_t scan = 0; scan < threads; ++scan) {
        const std::uint32_t t = (turn + scan) % threads;
        const auto tid = static_cast<ThreadId>(t);
        ThreadCursor& cursor = cursors[t];
        const auto& records = trace.thread(tid);
        if (cursor.next >= records.size() || cursor.arrive_at > now ||
            !tags[t].available()) {
          continue;
        }
        const MemRecord& record = records[cursor.next];
        RawRequest request;
        request.addr = record.addr;
        request.op = record.op;
        request.size = record.size;
        request.tid = tid;
        request.tag = tags[t].peek();
        request.core = static_cast<CoreId>(t % config.cores);
#if MAC3D_OBS_ENABLED
        // core_issue marks the first presentation attempt; the delta to the
        // path's queue_insert measures intake back-pressure. peek() is
        // stable across rejected attempts, so the stamp matches the tag
        // eventually allocated.
        if (options.sink != nullptr && !cursor.stamped) {
          options.sink->on_stage(Stage::kCoreIssue, tid, request.tag, now);
          cursor.stamped = true;
        }
#endif
        if (!path.try_accept(request, now)) {
          intake_open = false;
          break;
        }
        tags[t].allocate();
        telemetry.mark_feeder(now);
        ++cursor.next;
        cursor.stamped = false;
        --records_left;
        // Open-loop pacing: the next record arrives `gap` core cycles
        // after this one *was generated* (arrivals can back up).
        if (cursor.next < records.size()) {
          cursor.arrive_at += charge_gaps ? records[cursor.next].gap : 0;
        }
        turn = (t + 1) % threads;
        found = true;
        break;
      }
      if (!found) break;
    }

    path.tick(now);
    telemetry.lap(HostPhase::kTick);
    barrier();
    telemetry.lap(HostPhase::kCommit);
    // Livelock fault injection (watchdog testing): past the trigger cycle
    // completions are left undelivered in the path.
    const bool drain_open = livelock_at == 0 || now < livelock_at;
    for (const CompletedAccess& done :
         drain_open ? path.drain(now) : std::vector<CompletedAccess>{}) {
      result.makespan = std::max(result.makespan, done.completed);
      ++result.completions;
      MAC3D_OBS_STAMP(options.sink, Stage::kCoreComplete, done.target.tid,
                      done.target.tag, done.completed);
      if (done.target.tid < threads) {
        tags[done.target.tid].release(done.target.tag);
      }
    }
    if (telemetry.observe_cycle(now)) break;

    // Event engines wake at the feeder's earliest arrival or the path's
    // next event, whichever comes first.
    now = telemetry.advance(now, path, [&] {
      Cycle earliest = kNever;
      for (std::uint32_t t = 0; t < threads && records_left > 0; ++t) {
        const ThreadCursor& cursor = cursors[t];
        if (cursor.next >= trace.thread(static_cast<ThreadId>(t)).size()) {
          continue;
        }
        // A thread stalled on tag-pool exhaustion wakes on a completion
        // (path event), not on an arrival time.
        if (!tags[t].available()) continue;
        if (cursor.arrive_at <= now) return now + 1;
        earliest = std::min(earliest, cursor.arrive_at);
      }
      return earliest;
    });
  }
  return result;
}

/// Closed-loop feed (paper Sec. 3): each hardware thread may have a small
/// number of loads outstanding (hit-under-miss) and posts stores through a
/// finite store buffer; it stalls otherwise, and pays its recorded compute
/// gap between references. Up to `intake_ports` requests (one per core
/// port) enter the path per cycle.
template <typename Path, typename Barrier>
LoopResult run_closed_loop(Path& path, const MemoryTrace& trace,
                           const SimConfig& config, std::uint32_t threads,
                           const DriveOptions& options, Barrier&& barrier) {
  struct ThreadCursor {
    std::size_t next = 0;
    std::uint32_t loads = 0;   ///< outstanding loads + atomics
    std::uint32_t stores = 0;  ///< store-buffer occupancy
    Cycle ready_at = 0;
    Tag tag = 0;
    bool stamped = false;  ///< core_issue emitted for the current record
  };

  threads = std::min(threads, trace.threads());
  const std::uint32_t ports =
      options.intake_ports == 0 ? config.cores : options.intake_ports;
  std::vector<ThreadCursor> cursors(threads);
  std::uint64_t records_left = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    const auto& records = trace.thread(static_cast<ThreadId>(t));
    records_left += records.size();
    if (!records.empty() && options.charge_gaps) {
      cursors[t].ready_at = records.front().gap;
    }
  }

  Cycle now = 0;
  LoopResult result;
  std::uint32_t turn = 0;
  std::uint64_t outstanding_total = 0;
  const Cycle livelock_at = options.inject_livelock_at;
  LoopTelemetry telemetry(options, result, engine_is_event(options.engine));

  auto thread_issuable = [&](const ThreadCursor& cursor,
                             ThreadId tid) -> bool {
    const auto& records = trace.thread(tid);
    if (cursor.next >= records.size() || cursor.ready_at > now) return false;
    switch (records[cursor.next].op) {
      case MemOp::kFence:  // a fence waits for all of the thread's ops
        return cursor.loads == 0 && cursor.stores == 0;
      case MemOp::kStore:
        return cursor.stores < options.max_stores_per_thread;
      case MemOp::kLoad:
      case MemOp::kAtomic:
        return cursor.loads < options.max_loads_per_thread;
    }
    return false;
  };

  while (records_left > 0 || outstanding_total > 0 || !path.idle()) {
    // Intake: scan the threads round-robin, presenting issuable requests
    // until the path's intake ports reject one (or every thread is busy).
    std::uint32_t accepted = 0;
    bool intake_open = true;
    while (records_left > 0 && accepted < ports && intake_open) {
      bool found = false;
      for (std::uint32_t scan = 0; scan < threads; ++scan) {
        const std::uint32_t t = (turn + scan) % threads;
        const auto tid = static_cast<ThreadId>(t);
        ThreadCursor& cursor = cursors[t];
        if (!thread_issuable(cursor, tid)) continue;
        const MemRecord& record = trace.thread(tid)[cursor.next];
        RawRequest request;
        request.addr = record.addr;
        request.op = record.op;
        request.size = record.size;
        request.tid = tid;
        request.tag = cursor.tag;
        request.core = static_cast<CoreId>(t % config.cores);
#if MAC3D_OBS_ENABLED
        if (options.sink != nullptr && !cursor.stamped) {
          options.sink->on_stage(Stage::kCoreIssue, tid, cursor.tag, now);
          cursor.stamped = true;
        }
#endif
        if (!path.try_accept(request, now)) {
          intake_open = false;  // ports exhausted for this cycle
          break;
        }
        ++cursor.tag;
        telemetry.mark_feeder(now);
        ++cursor.next;
        cursor.stamped = false;
        if (record.op == MemOp::kStore) {
          ++cursor.stores;
        } else {
          ++cursor.loads;  // loads, atomics and fences all complete back
        }
        ++outstanding_total;
        --records_left;
        turn = (t + 1) % threads;
        found = true;
        ++accepted;
        break;
      }
      if (!found) break;
    }

    path.tick(now);
    telemetry.lap(HostPhase::kTick);
    barrier();
    telemetry.lap(HostPhase::kCommit);
    // Livelock fault injection (watchdog testing): past the trigger cycle
    // completions are left undelivered in the path.
    const bool drain_open = livelock_at == 0 || now < livelock_at;
    for (const CompletedAccess& done :
         drain_open ? path.drain(now) : std::vector<CompletedAccess>{}) {
      result.makespan = std::max(result.makespan, done.completed);
      ++result.completions;
      MAC3D_OBS_STAMP(options.sink, Stage::kCoreComplete, done.target.tid,
                      done.target.tag, done.completed);
      const std::uint32_t t = done.target.tid;
      if (t >= threads) continue;  // foreign node traffic (not used here)
      ThreadCursor& cursor = cursors[t];
      if (done.write && !done.atomic && !done.fence) {
        --cursor.stores;
      } else {
        --cursor.loads;  // loads, atomics and fences
      }
      --outstanding_total;
      const auto& records = trace.thread(static_cast<ThreadId>(t));
      Cycle ready = done.completed;
      if (options.charge_gaps && cursor.next < records.size()) {
        ready += records[cursor.next].gap;
      }
      cursor.ready_at = std::max(cursor.ready_at, ready);
    }
    if (telemetry.observe_cycle(now)) break;

    // Event engines wake at the earliest of (path event, thread ready
    // time).
    now = telemetry.advance(now, path, [&] {
      Cycle earliest_ready = kNever;
      for (std::uint32_t t = 0; t < threads && records_left > 0; ++t) {
        const auto tid = static_cast<ThreadId>(t);
        const ThreadCursor& cursor = cursors[t];
        const auto& records = trace.thread(tid);
        if (cursor.next >= records.size()) continue;
        if (thread_issuable(cursor, tid)) return now + 1;
        // Blocked only on time (not on an occupancy window)?
        const MemRecord& record = records[cursor.next];
        bool window_ok = false;
        switch (record.op) {
          case MemOp::kFence:
            window_ok = cursor.loads == 0 && cursor.stores == 0;
            break;
          case MemOp::kStore:
            window_ok = cursor.stores < options.max_stores_per_thread;
            break;
          default:
            window_ok = cursor.loads < options.max_loads_per_thread;
        }
        if (window_ok && cursor.ready_at > now) {
          earliest_ready = std::min(earliest_ready, cursor.ready_at);
        }
      }
      return earliest_ready;
    });
  }
  return result;
}

/// SIMT lane-group feed (FeedMode::kLaneGroup): threads form consecutive
/// groups of config.warp_lanes lanes. A group presents record step `s` of
/// every lane in lane order — gated on all lanes having paid their compute
/// gaps — and advances to step `s+1` only once every lane's step-`s`
/// request completed, reproducing a warp scheduler's lockstep issue. Lanes
/// with shorter streams simply drop out of later steps. Each lane has at
/// most one request in flight, so a per-lane tag cursor never reissues a
/// live (tid, tag).
template <typename Path, typename Barrier>
LoopResult run_lane_group(Path& path, const MemoryTrace& trace,
                          const SimConfig& config, std::uint32_t threads,
                          const DriveOptions& options, Barrier&& barrier) {
  struct LaneState {
    bool issued = false;       ///< current step's request accepted
    bool outstanding = false;  ///< awaiting its completion
    Cycle ready_at = 0;        ///< gap pacing for the current step
    Cycle completed_at = 0;    ///< last completion (next step's gap base)
    Tag tag = 0;
    bool stamped = false;  ///< core_issue emitted for the current step
  };
  struct Group {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::size_t step = 0;
    std::size_t steps = 0;  ///< longest lane stream in the group
  };

  threads = std::min(threads, trace.threads());
  const std::uint32_t lanes = std::max<std::uint32_t>(1, config.warp_lanes);
  std::vector<LaneState> lane_state(threads);
  std::vector<Group> groups;
  std::uint64_t records_left = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    const auto& records = trace.thread(static_cast<ThreadId>(t));
    records_left += records.size();
    if (!records.empty() && options.charge_gaps) {
      lane_state[t].ready_at = records.front().gap;
    }
  }
  for (std::uint32_t first = 0; first < threads; first += lanes) {
    Group group;
    group.first = first;
    group.count = std::min(lanes, threads - first);
    for (std::uint32_t l = 0; l < group.count; ++l) {
      group.steps = std::max(
          group.steps, trace.thread(static_cast<ThreadId>(first + l)).size());
    }
    groups.push_back(group);
  }

  Cycle now = 0;
  LoopResult result;
  std::uint64_t outstanding_total = 0;
  const Cycle livelock_at = options.inject_livelock_at;
  LoopTelemetry telemetry(options, result, engine_is_event(options.engine));

  const auto participates = [&trace](const Group& group, std::uint32_t t) {
    return trace.thread(static_cast<ThreadId>(t)).size() > group.step;
  };
  // Lockstep gate: the step may start only once every participating lane
  // has paid its gap.
  const auto group_gate = [&](const Group& group) -> Cycle {
    Cycle gate = 0;
    for (std::uint32_t l = 0; l < group.count; ++l) {
      const std::uint32_t t = group.first + l;
      if (!participates(group, t)) continue;
      gate = std::max(gate, lane_state[t].ready_at);
    }
    return gate;
  };

  while (records_left > 0 || outstanding_total > 0 || !path.idle()) {
    // Intake: groups in index order, lanes in lane order, until the
    // path's intake ports reject one.
    bool intake_open = records_left > 0;
    for (Group& group : groups) {
      if (!intake_open) break;
      if (group.step >= group.steps) continue;
      if (group_gate(group) > now) continue;
      for (std::uint32_t l = 0; l < group.count && intake_open; ++l) {
        const std::uint32_t t = group.first + l;
        if (!participates(group, t)) continue;
        LaneState& lane = lane_state[t];
        if (lane.issued) continue;
        const auto tid = static_cast<ThreadId>(t);
        const MemRecord& record = trace.thread(tid)[group.step];
        RawRequest request;
        request.addr = record.addr;
        request.op = record.op;
        request.size = record.size;
        request.tid = tid;
        request.tag = lane.tag;
        request.core = static_cast<CoreId>(t % config.cores);
#if MAC3D_OBS_ENABLED
        if (options.sink != nullptr && !lane.stamped) {
          options.sink->on_stage(Stage::kCoreIssue, tid, lane.tag, now);
          lane.stamped = true;
        }
#endif
        if (!path.try_accept(request, now)) {
          intake_open = false;
          break;
        }
        lane.issued = true;
        lane.outstanding = true;
        telemetry.mark_feeder(now);
        ++outstanding_total;
        --records_left;
      }
    }

    path.tick(now);
    telemetry.lap(HostPhase::kTick);
    barrier();
    telemetry.lap(HostPhase::kCommit);
    // Livelock fault injection (watchdog testing): past the trigger cycle
    // completions are left undelivered in the path.
    const bool drain_open = livelock_at == 0 || now < livelock_at;
    for (const CompletedAccess& done :
         drain_open ? path.drain(now) : std::vector<CompletedAccess>{}) {
      result.makespan = std::max(result.makespan, done.completed);
      ++result.completions;
      MAC3D_OBS_STAMP(options.sink, Stage::kCoreComplete, done.target.tid,
                      done.target.tag, done.completed);
      const std::uint32_t t = done.target.tid;
      if (t >= threads) continue;
      LaneState& lane = lane_state[t];
      lane.outstanding = false;
      lane.completed_at = std::max(lane.completed_at, done.completed);
      --outstanding_total;
    }
    // Advance every group whose step fully completed.
    for (Group& group : groups) {
      if (group.step >= group.steps) continue;
      bool done_step = true;
      for (std::uint32_t l = 0; l < group.count; ++l) {
        const std::uint32_t t = group.first + l;
        if (!participates(group, t)) continue;
        const LaneState& lane = lane_state[t];
        if (!lane.issued || lane.outstanding) {
          done_step = false;
          break;
        }
      }
      if (!done_step) continue;
      ++group.step;
      for (std::uint32_t l = 0; l < group.count; ++l) {
        const std::uint32_t t = group.first + l;
        LaneState& lane = lane_state[t];
        lane.issued = false;
        lane.stamped = false;
        ++lane.tag;
        const auto& records = trace.thread(static_cast<ThreadId>(t));
        if (options.charge_gaps && group.step < records.size()) {
          lane.ready_at = std::max(
              lane.ready_at, lane.completed_at + records[group.step].gap);
        }
      }
    }
    if (telemetry.observe_cycle(now)) break;

    // Event engines wake at the earliest of (path event, earliest group
    // gate).
    now = telemetry.advance(now, path, [&] {
      Cycle earliest = kNever;
      if (records_left == 0) return earliest;
      for (const Group& group : groups) {
        if (group.step >= group.steps) continue;
        bool any_unissued = false;
        for (std::uint32_t l = 0; l < group.count; ++l) {
          const std::uint32_t t = group.first + l;
          if (participates(group, t) && !lane_state[t].issued) {
            any_unissued = true;
            break;
          }
        }
        // A fully issued group wakes on a completion (a path event).
        if (!any_unissued) continue;
        const Cycle gate = group_gate(group);
        if (gate <= now) return now + 1;
        earliest = std::min(earliest, gate);
      }
      return earliest;
    });
  }
  return result;
}

template <typename Path>
DriverResult finish(Path& path, const HmcDevice& device,
                    const LoopResult& loop, const char* name) {
  DriverResult result;
  result.path = name;
  result.makespan = loop.makespan;
  result.completions = loop.completions;
  const HmcStats& hmc = device.stats();
  result.packets = hmc.requests;
  result.bank_conflicts = hmc.bank_conflicts;
  result.refresh_stalls = hmc.refresh_stalls;
  result.row_hit_rate =
      hmc.requests == 0 ? 0.0
                        : static_cast<double>(hmc.row_hits) /
                              static_cast<double>(hmc.requests);
  result.data_bytes = hmc.data_bytes;
  result.link_bytes = hmc.link_bytes;
  result.overhead_bytes = hmc.overhead_bytes;
  result.avg_packet_bytes = hmc.packet_data_bytes.mean();
  result.device_latency_sum = hmc.latency_cycles.sum();
  result.device_latency_avg = hmc.latency_cycles.mean();
  (void)path;
  return result;
}

/// Per-run engine state: under the parallel engines the device runs
/// staged and a ParallelStepper commits its per-cycle work at the loop
/// barrier; under the serial engines the barrier is a no-op and no pool
/// is spawned.
class EngineWindow {
 public:
  EngineWindow(const DriveOptions& options, HmcDevice& device)
      : device_(device) {
    if (engine_is_parallel(options.engine)) {
      stepper_ = std::make_unique<ParallelStepper>(options.engine_threads);
      device.begin_staged();
    }
  }

  void barrier() {
    if (stepper_ != nullptr) device_.step_staged(*stepper_);
  }

 private:
  HmcDevice& device_;
  std::unique_ptr<ParallelStepper> stepper_;
};

template <typename Path>
LoopResult dispatch(Path& path, const MemoryTrace& trace,
                    const SimConfig& config, std::uint32_t threads,
                    const DriveOptions& options, EngineWindow& engine) {
  const auto barrier = [&engine] { engine.barrier(); };
  switch (options.mode) {
    case FeedMode::kClosedLoop:
      return run_closed_loop(path, trace, config, threads, options, barrier);
    case FeedMode::kLaneGroup:
      return run_lane_group(path, trace, config, threads, options, barrier);
    case FeedMode::kStreaming:
      break;
  }
  return run_streaming(path, trace, config, threads, options, barrier);
}

/// Scopes one run's slice of a (possibly shared) CheckContext: snapshots
/// the counters, and guarantees finalize() runs while the pipeline is still
/// alive — including when a kThrow-mode breach unwinds out of the run loop
/// (declare the window *after* the device and the path).
class CheckWindow {
 public:
  explicit CheckWindow(CheckContext* context) : context_(context) {
    if (context_ != nullptr) {
      checks_before_ = context_->checks_run();
      violations_before_ = context_->violations();
    }
  }

  CheckWindow(const CheckWindow&) = delete;
  CheckWindow& operator=(const CheckWindow&) = delete;

  ~CheckWindow() {
    if (context_ == nullptr || closed_) return;
    // Unwinding (kThrow): run the end-of-run audits anyway so the hooks
    // release their captured components; secondary breaches stay counted
    // but must not escape a destructor.
    try {
      context_->finalize();
    } catch (const InvariantViolation&) {  // NOLINT(bugprone-empty-catch)
    }
  }

  /// Normal completion: finalize and report this run's deltas.
  void close(DriverResult& result) {
    closed_ = true;
    if (context_ == nullptr) return;
    context_->finalize();
    result.checks_run = context_->checks_run() - checks_before_;
    result.check_violations = context_->violations() - violations_before_;
  }

 private:
  CheckContext* context_;
  std::uint64_t checks_before_ = 0;
  std::uint64_t violations_before_ = 0;
  bool closed_ = false;
};

/// Scopes one run's slice of a (possibly shared) CycleSampler: opens the
/// sampling window, and guarantees the probes — which capture the run's
/// path and device by reference — are dropped before those objects die,
/// including on exception unwind (declare after the device and the path).
class SamplerWindow {
 public:
  SamplerWindow(CycleSampler* sampler, const char* path_name)
      : sampler_(sampler) {
    if (sampler_ != nullptr) sampler_->begin_run(path_name);
  }

  SamplerWindow(const SamplerWindow&) = delete;
  SamplerWindow& operator=(const SamplerWindow&) = delete;

  ~SamplerWindow() {
    if (sampler_ != nullptr && !closed_) sampler_->abort_run();
  }

  /// Normal completion: flush the tail windows up to the makespan.
  void close(Cycle makespan) {
    closed_ = true;
    if (sampler_ != nullptr) sampler_->end_run(makespan);
  }

 private:
  CycleSampler* sampler_;
  bool closed_ = false;
};

/// Scopes one run's slice of a (possibly shared) SnapshotStreamer: opens
/// the snapshot run, and guarantees the probes — which capture the run's
/// path and device by reference — are dropped before those objects die,
/// including on exception unwind (same hazard as SamplerWindow).
class SnapshotWindow {
 public:
  SnapshotWindow(SnapshotStreamer* snapshot, const char* path_name)
      : snapshot_(snapshot) {
    if (snapshot_ != nullptr) snapshot_->begin_run(path_name);
  }

  SnapshotWindow(const SnapshotWindow&) = delete;
  SnapshotWindow& operator=(const SnapshotWindow&) = delete;

  ~SnapshotWindow() {
    if (snapshot_ != nullptr && !closed_) snapshot_->abort_run();
  }

  /// Normal completion: flush the tail windows and the run footer.
  void close(Cycle makespan) {
    closed_ = true;
    if (snapshot_ != nullptr) snapshot_->end_run(makespan);
  }

 private:
  SnapshotStreamer* snapshot_;
  bool closed_ = false;
};

/// Scopes one run's slice of a (possibly shared) ActivityCensus: its
/// probes capture the run's path and device by reference, so seal() must
/// run before those objects die — including on exception unwind (declare
/// after the device and the path, like SamplerWindow). Counts survive the
/// seal; a shared census accumulates across runs.
class CensusWindow {
 public:
  explicit CensusWindow(ActivityCensus* census) : census_(census) {}
  CensusWindow(const CensusWindow&) = delete;
  CensusWindow& operator=(const CensusWindow&) = delete;
  ~CensusWindow() {
    if (census_ != nullptr) census_->seal();
  }

 private:
  ActivityCensus* census_;
};

#if MAC3D_OBS_ENABLED
/// Device-side probes shared by every path (registered after the path's
/// own probes so the CSV column set is uniform: queue_occupancy,
/// issue_backlog, then the device series).
void register_device_probes(CycleSampler& sampler, const HmcDevice& device) {
  sampler.add_probe("device_in_flight", [&device](Cycle) {
    return static_cast<double>(device.in_flight());
  });
  sampler.add_probe("banks_busy", [&device](Cycle cycle) {
    return device.banks_busy_fraction(cycle);
  });
  for (std::uint32_t v = 0; v < device.vault_count(); ++v) {
    sampler.add_probe("vault" + std::to_string(v) + "_busy",
                      [&device, v](Cycle cycle) {
                        return device.vault_busy_fraction(v, cycle);
                      });
  }
  for (std::uint32_t l = 0; l < device.link_count(); ++l) {
    sampler.add_probe("link" + std::to_string(l) + "_backlog",
                      [&device, l](Cycle cycle) {
                        return static_cast<double>(
                            device.link_request_backlog(l, cycle));
                      });
    sampler.add_probe("link" + std::to_string(l) + "_flits",
                      [&device, l](Cycle) {
                        return static_cast<double>(device.link_flits_sent(l));
                      });
  }
}

/// Device-side snapshot counters/gauges shared by every path (the path
/// adapter registers the reserved injected counter and its own occupancy
/// gauge; the loop registers the reserved completions counter).
void register_device_snapshot(SnapshotStreamer& snapshot,
                              const HmcDevice& device) {
  const HmcStats& stats = device.stats();
  snapshot.add_counter("packets", [&stats] { return stats.requests; });
  snapshot.add_counter("data_bytes", [&stats] { return stats.data_bytes; });
  snapshot.add_counter("link_bytes", [&stats] { return stats.link_bytes; });
  snapshot.add_gauge("device_in_flight", [&device] {
    return static_cast<double>(device.in_flight());
  });
}
#endif  // MAC3D_OBS_ENABLED

}  // namespace

DriverResult run_mac(const MemoryTrace& trace, const SimConfig& config,
                     std::uint32_t threads, const DriveOptions& options) {
  HmcDevice device(config);
  MacCoalescer mac(config, device);
  CheckWindow window(options.checks);
  if (options.checks != nullptr) {
    device.attach_checks(options.checks);
    mac.attach_checks(options.checks);
  }
#if MAC3D_OBS_ENABLED
  if (options.sink != nullptr) {
    mac.attach_sink(options.sink);
    device.attach_sink(options.sink);
  }
#endif
#if MAC3D_OBS_ENABLED
  CycleSampler* const sampler = options.sampler;
  ActivityCensus* const census = options.census;
  SnapshotStreamer* const snapshot = options.snapshot;
#else
  CycleSampler* const sampler = nullptr;
  ActivityCensus* const census = nullptr;
  SnapshotStreamer* const snapshot = nullptr;
#endif
  SamplerWindow swindow(sampler, "mac");
  CensusWindow cwindow(census);
  SnapshotWindow snwindow(snapshot, "mac");
#if MAC3D_OBS_ENABLED
  if (sampler != nullptr) {
    sampler->add_probe("queue_occupancy", [&mac](Cycle) {
      return static_cast<double>(mac.arq().size());
    });
    sampler->add_probe("issue_backlog", [&mac](Cycle) {
      return static_cast<double>(mac.issue_backlog());
    });
    register_device_probes(*sampler, device);
  }
  if (census != nullptr) {
    census->add_feeder("node0.feeder");
    mac.register_census(*census, "node0.");
    device.register_census(*census, "node0.");
  }
  if (snapshot != nullptr) {
    // "injected" counts everything that will eventually complete —
    // fences retire like requests, so they are folded in.
    snapshot->add_counter(SnapshotStreamer::kInjectedCounter, [&mac] {
      return mac.stats().raw_in + mac.stats().fences_in;
    });
    snapshot->add_gauge("queue_occupancy", [&mac] {
      return static_cast<double>(mac.arq().size());
    });
    register_device_snapshot(*snapshot, device);
    snapshot->attach_census(census);
  }
#endif
  EngineWindow engine(options, device);
  const LoopResult loop = dispatch(mac, trace, config, threads, options,
                                   engine);
  DriverResult result = finish(mac, device, loop, "mac");
  snwindow.close(loop.makespan);
  swindow.close(loop.makespan);
  window.close(result);
  result.raw_requests = mac.stats().raw_in;
  result.avg_latency_cycles = mac.stats().raw_latency_cycles.mean();
  result.avg_targets_per_entry = mac.arq().stats().targets_per_entry.mean();
  result.max_targets_per_entry = mac.arq().stats().targets_per_entry.max();
  result.packets_by_size = mac.stats().packets_by_size;
  return result;
}

DriverResult run_raw(const MemoryTrace& trace, const SimConfig& config,
                     std::uint32_t threads, const DriveOptions& options) {
  HmcDevice device(config);
  RawPath raw(config, device);
  CheckWindow window(options.checks);
  if (options.checks != nullptr) {
    device.attach_checks(options.checks);
    raw.attach_checks(options.checks);
  }
#if MAC3D_OBS_ENABLED
  if (options.sink != nullptr) {
    raw.attach_sink(options.sink);
    device.attach_sink(options.sink);
  }
#endif
#if MAC3D_OBS_ENABLED
  CycleSampler* const sampler = options.sampler;
  ActivityCensus* const census = options.census;
  SnapshotStreamer* const snapshot = options.snapshot;
#else
  CycleSampler* const sampler = nullptr;
  ActivityCensus* const census = nullptr;
  SnapshotStreamer* const snapshot = nullptr;
#endif
  SamplerWindow swindow(sampler, "raw");
  CensusWindow cwindow(census);
  SnapshotWindow snwindow(snapshot, "raw");
#if MAC3D_OBS_ENABLED
  if (sampler != nullptr) {
    sampler->add_probe("queue_occupancy", [&raw](Cycle) {
      return static_cast<double>(raw.queue_depth());
    });
    sampler->add_probe("issue_backlog", [](Cycle) { return 0.0; });
    register_device_probes(*sampler, device);
  }
  if (census != nullptr) {
    census->add_feeder("node0.feeder");
    census->add_component("node0.queue", raw);
    device.register_census(*census, "node0.");
  }
  if (snapshot != nullptr) {
    snapshot->add_counter(SnapshotStreamer::kInjectedCounter, [&raw] {
      return raw.raw_in() + raw.fences_in();
    });
    snapshot->add_gauge("queue_occupancy", [&raw] {
      return static_cast<double>(raw.queue_depth());
    });
    register_device_snapshot(*snapshot, device);
    snapshot->attach_census(census);
  }
#endif
  EngineWindow engine(options, device);
  const LoopResult loop = dispatch(raw, trace, config, threads, options,
                                   engine);
  DriverResult result = finish(raw, device, loop, "raw");
  snwindow.close(loop.makespan);
  swindow.close(loop.makespan);
  window.close(result);
  result.raw_requests = raw.raw_in();
  result.avg_latency_cycles = raw.latency().mean();
  result.packets_by_size[kFlitBytes] = raw.packets_out();
  return result;
}

DriverResult run_mshr(const MemoryTrace& trace, const SimConfig& config,
                      std::uint32_t threads, std::uint32_t mshr_entries,
                      std::uint32_t block_bytes, const DriveOptions& options) {
  HmcDevice device(config);
  MshrCoalescer mshr(config, device, mshr_entries, block_bytes);
  CheckWindow window(options.checks);
  if (options.checks != nullptr) {
    device.attach_checks(options.checks);
    mshr.attach_checks(options.checks);
  }
#if MAC3D_OBS_ENABLED
  if (options.sink != nullptr) {
    mshr.attach_sink(options.sink);
    device.attach_sink(options.sink);
  }
#endif
#if MAC3D_OBS_ENABLED
  CycleSampler* const sampler = options.sampler;
  ActivityCensus* const census = options.census;
  SnapshotStreamer* const snapshot = options.snapshot;
#else
  CycleSampler* const sampler = nullptr;
  ActivityCensus* const census = nullptr;
  SnapshotStreamer* const snapshot = nullptr;
#endif
  SamplerWindow swindow(sampler, "mshr");
  CensusWindow cwindow(census);
  SnapshotWindow snwindow(snapshot, "mshr");
#if MAC3D_OBS_ENABLED
  if (sampler != nullptr) {
    sampler->add_probe("queue_occupancy", [&mshr](Cycle) {
      return static_cast<double>(mshr.occupancy());
    });
    sampler->add_probe("issue_backlog", [&mshr](Cycle) {
      return static_cast<double>(mshr.dispatch_backlog());
    });
    register_device_probes(*sampler, device);
  }
  if (census != nullptr) {
    census->add_feeder("node0.feeder");
    census->add_component("node0.mshr", mshr);
    device.register_census(*census, "node0.");
  }
  if (snapshot != nullptr) {
    snapshot->add_counter(SnapshotStreamer::kInjectedCounter, [&mshr] {
      return mshr.stats().raw_in + mshr.stats().fences_in;
    });
    snapshot->add_gauge("queue_occupancy", [&mshr] {
      return static_cast<double>(mshr.occupancy());
    });
    register_device_snapshot(*snapshot, device);
    snapshot->attach_census(census);
  }
#endif
  EngineWindow engine(options, device);
  const LoopResult loop = dispatch(mshr, trace, config, threads, options,
                                   engine);
  DriverResult result = finish(mshr, device, loop, "mshr");
  snwindow.close(loop.makespan);
  swindow.close(loop.makespan);
  window.close(result);
  result.raw_requests = mshr.stats().raw_in;
  result.avg_latency_cycles = mshr.stats().raw_latency_cycles.mean();
  result.packets_by_size[block_bytes] = mshr.stats().packets_out;
  return result;
}

DriverResult run_warp(const MemoryTrace& trace, const SimConfig& config,
                      std::uint32_t threads, const DriveOptions& options) {
  HmcDevice device(config);
  WarpCoalescer warp(config, device);
  CheckWindow window(options.checks);
  if (options.checks != nullptr) {
    device.attach_checks(options.checks);
    warp.attach_checks(options.checks);
  }
#if MAC3D_OBS_ENABLED
  if (options.sink != nullptr) {
    warp.attach_sink(options.sink);
    device.attach_sink(options.sink);
  }
#endif
#if MAC3D_OBS_ENABLED
  CycleSampler* const sampler = options.sampler;
  ActivityCensus* const census = options.census;
  SnapshotStreamer* const snapshot = options.snapshot;
#else
  CycleSampler* const sampler = nullptr;
  ActivityCensus* const census = nullptr;
  SnapshotStreamer* const snapshot = nullptr;
#endif
  SamplerWindow swindow(sampler, "warp");
  CensusWindow cwindow(census);
  SnapshotWindow snwindow(snapshot, "warp");
#if MAC3D_OBS_ENABLED
  if (sampler != nullptr) {
    sampler->add_probe("queue_occupancy", [&warp](Cycle) {
      return static_cast<double>(warp.occupancy());
    });
    sampler->add_probe("issue_backlog", [&warp](Cycle) {
      return static_cast<double>(warp.window_backlog());
    });
    register_device_probes(*sampler, device);
  }
  if (census != nullptr) {
    census->add_feeder("node0.feeder");
    census->add_component("node0.warp", warp);
    device.register_census(*census, "node0.");
  }
  if (snapshot != nullptr) {
    snapshot->add_counter(SnapshotStreamer::kInjectedCounter, [&warp] {
      return warp.stats().raw_in + warp.stats().fences_in;
    });
    snapshot->add_gauge("queue_occupancy", [&warp] {
      return static_cast<double>(warp.occupancy());
    });
    register_device_snapshot(*snapshot, device);
    snapshot->attach_census(census);
  }
#endif
  EngineWindow engine(options, device);
  const LoopResult loop = dispatch(warp, trace, config, threads, options,
                                   engine);
  DriverResult result = finish(warp, device, loop, "warp");
  snwindow.close(loop.makespan);
  swindow.close(loop.makespan);
  window.close(result);
  result.raw_requests = warp.stats().raw_in;
  result.avg_latency_cycles = warp.stats().raw_latency_cycles.mean();
  result.packets_by_size = warp.stats().packets_by_size;
  return result;
}

DriverResult run_policy(CoalescerPolicy policy, const MemoryTrace& trace,
                        const SimConfig& config, std::uint32_t threads,
                        const DriveOptions& options) {
  switch (policy) {
    case CoalescerPolicy::kRaw:
      return run_raw(trace, config, threads, options);
    case CoalescerPolicy::kMshr:
      return run_mshr(trace, config, threads, config.mshr_entries,
                      config.mshr_block_bytes, options);
    case CoalescerPolicy::kWarp:
      return run_warp(trace, config, threads, options);
    case CoalescerPolicy::kMac:
      break;
  }
  return run_mac(trace, config, threads, options);
}

}  // namespace mac3d
