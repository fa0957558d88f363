#include "sim/driver.hpp"

#include <algorithm>
#include <vector>

#include "check/check.hpp"
#include "mem/hmc_device.hpp"
#include "obs/obs.hpp"
#include "obs/serial_point.hpp"
#include "sim/path_adapters.hpp"
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

constexpr Cycle kNever = SerialPoint::kNever;

/// The closed-loop window (paper Sec. 3): loads and atomics a thread may
/// have outstanding before it stalls — 2 models the "hit under miss"
/// (Kroft) a simple in-order core affords — and its posted-store buffer
/// depth.
constexpr std::uint32_t kMaxLoadsPerThread = 2;
constexpr std::uint32_t kMaxStoresPerThread = 4;

/// What the loop learns from completions, and the feeder's census slot.
/// It outlives the loop: the snapshot's completions counter still reads
/// it when the run ends, and the census until it is sealed.
struct LoopResult {
  Cycle makespan = 0;             ///< cycle of the last completion
  std::uint64_t completions = 0;  ///< data records + retired fences
  BusyUntil feeder_until;  ///< census slot: marked at every intake
};

/// What every feed shares: its view of the trace and the presentation of
/// one record to the path. A feed adds what differs: intake(), the
/// bookkeeping of a completion, pending() work that keeps the loop
/// running, and next_arrival(), the event clock's wake for the feed.
class Feed {
 protected:
  Feed(const MemoryTrace& trace, const SimConfig& config,
       std::uint32_t threads, const DriveOptions& options,
       BusyUntil& feeder_until)
      : trace_(trace),
        options_(options),
        feeder_until_(feeder_until),
        cores_(config.cores),
        threads_(std::min(threads, trace.threads())) {
    for (std::uint32_t t = 0; t < threads_; ++t) {
      records_left_ += records(t).size();
    }
  }

  [[nodiscard]] const std::vector<MemRecord>& records(std::uint32_t t) const {
    return trace_.thread(static_cast<ThreadId>(t));
  }
  /// When thread `t`'s first record arrives: after its compute gap.
  [[nodiscard]] Cycle first_arrival(std::uint32_t t) const {
    return records(t).empty() ? 0 : records(t).front().gap;
  }

  /// Round-robin from the turn: the first thread `ready` admits, or
  /// threads_ when none does.
  template <typename Ready>
  [[nodiscard]] std::uint32_t next_thread(Ready&& ready) const {
    for (std::uint32_t scan = 0; scan < threads_; ++scan) {
      const std::uint32_t t = (turn_ + scan) % threads_;
      if (ready(t)) return t;
    }
    return threads_;
  }

  /// Present `record` to the path as thread `t`'s request `tag`; true when
  /// accepted. core_issue marks the first presentation attempt (`stamped`
  /// remembers it across rejections), so its delta to the path's
  /// queue_insert measures intake back-pressure.
  template <typename Path>
  bool present(Path& path, const MemRecord& record, std::uint32_t t, Tag tag,
               bool& stamped, Cycle now) const {
    RawRequest request;
    request.addr = record.addr;
    request.op = record.op;
    request.size = record.size;
    request.tid = static_cast<ThreadId>(t);
    request.tag = tag;
    request.core = static_cast<CoreId>(t % cores_);
    if (!stamped) {
      MAC3D_OBS_STAMP(options_.sink, Stage::kCoreIssue, request.tid, tag, now);
      stamped = true;
    }
    if (!path.try_accept(request, now)) return false;
    feeder_until_.work(now);
    stamped = false;
    return true;
  }

  const MemoryTrace& trace_;
  const DriveOptions& options_;
  BusyUntil& feeder_until_;
  std::uint32_t cores_;
  std::uint32_t threads_;
  std::uint64_t records_left_ = 0;
  std::uint32_t turn_ = 0;
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
/// wrapping cursor).
class StreamingFeed : public Feed {
 public:
  StreamingFeed(const MemoryTrace& trace, const SimConfig& config,
                std::uint32_t threads, const DriveOptions& options,
                BusyUntil& feeder_until)
      : Feed(trace, config, threads, options, feeder_until),
        cursors_(threads_),
        tags_(threads_, TagAllocator(options.tag_pool)) {
    for (std::uint32_t t = 0; t < threads_; ++t) {
      cursors_[t].arrive_at = first_arrival(t);
    }
  }

  [[nodiscard]] bool pending() const { return records_left_ > 0; }

  /// Present arrived records round-robin until the path's intake ports
  /// reject one (or no arrival is pending).
  template <typename Path>
  void intake(Path& path, Cycle now) {
    while (records_left_ > 0) {
      const std::uint32_t t = next_thread([&](std::uint32_t u) {
        return has_record(u) && cursors_[u].arrive_at <= now &&
               tags_[u].available();
      });
      if (t == threads_) return;
      Cursor& cursor = cursors_[t];
      const std::vector<MemRecord>& stream = records(t);
      if (!present(path, stream[cursor.next], t, tags_[t].peek(),
                   cursor.stamped, now)) {
        return;
      }
      tags_[t].allocate();
      --records_left_;
      // Open-loop pacing: the next record arrives `gap` core cycles
      // after this one *was generated* (arrivals can back up).
      if (++cursor.next < stream.size()) {
        cursor.arrive_at += stream[cursor.next].gap;
      }
      turn_ = (t + 1) % threads_;
    }
  }

  void complete(const CompletedAccess& done) {
    if (done.target.tid < threads_) {
      tags_[done.target.tid].release(done.target.tag);
    }
  }

  /// The earliest arrival. A thread stalled on tag-pool exhaustion wakes
  /// on a completion (a path event), not on an arrival time.
  [[nodiscard]] Cycle next_arrival(Cycle now) const {
    Cycle earliest = kNever;
    for (std::uint32_t t = 0; t < threads_ && records_left_ > 0; ++t) {
      if (!has_record(t) || !tags_[t].available()) continue;
      if (cursors_[t].arrive_at <= now) return now + 1;
      earliest = std::min(earliest, cursors_[t].arrive_at);
    }
    return earliest;
  }

 private:
  struct Cursor {
    std::size_t next = 0;
    Cycle arrive_at = 0;   ///< when the current record reaches the queue
    bool stamped = false;  ///< core_issue emitted for the current record
  };

  [[nodiscard]] bool has_record(std::uint32_t t) const {
    return cursors_[t].next < records(t).size();
  }

  std::vector<Cursor> cursors_;
  std::vector<TagAllocator> tags_;
};

/// Closed-loop feed (paper Sec. 3): each hardware thread may have a small
/// number of loads outstanding (hit-under-miss) and posts stores through a
/// finite store buffer; it stalls otherwise, and pays its recorded compute
/// gap between references. Up to one request per core (one intake port
/// each; the ARQ comparators check every entry at once, cf. Fig. 9)
/// enters the path per cycle.
class ClosedLoopFeed : public Feed {
 public:
  ClosedLoopFeed(const MemoryTrace& trace, const SimConfig& config,
                 std::uint32_t threads, const DriveOptions& options,
                 BusyUntil& feeder_until)
      : Feed(trace, config, threads, options, feeder_until),
        cursors_(threads_) {
    for (std::uint32_t t = 0; t < threads_; ++t) {
      cursors_[t].ready_at = first_arrival(t);
    }
  }

  [[nodiscard]] bool pending() const {
    return records_left_ > 0 || outstanding_ > 0;
  }

  /// Scan the threads round-robin, presenting issuable requests until the
  /// path's intake ports reject one (or every thread is busy).
  template <typename Path>
  void intake(Path& path, Cycle now) {
    for (std::uint32_t accepted = 0; records_left_ > 0 && accepted < cores_;
         ++accepted) {
      const std::uint32_t t = next_thread([&](std::uint32_t u) {
        const Cursor& cursor = cursors_[u];
        return cursor.next < records(u).size() && cursor.ready_at <= now &&
               window_open(cursor, records(u)[cursor.next].op);
      });
      if (t == threads_) return;
      Cursor& cursor = cursors_[t];
      const MemRecord& record = records(t)[cursor.next];
      if (!present(path, record, t, cursor.tag, cursor.stamped, now)) {
        return;  // ports exhausted for this cycle
      }
      ++cursor.tag;
      ++cursor.next;
      // Loads, atomics and fences all complete back.
      ++(record.op == MemOp::kStore ? cursor.stores : cursor.loads);
      ++outstanding_;
      --records_left_;
      turn_ = (t + 1) % threads_;
    }
  }

  void complete(const CompletedAccess& done) {
    const std::uint32_t t = done.target.tid;
    if (t >= threads_) return;  // foreign node traffic (not used here)
    Cursor& cursor = cursors_[t];
    --(done.write && !done.atomic && !done.fence ? cursor.stores
                                                 : cursor.loads);
    --outstanding_;
    Cycle ready = done.completed;
    if (cursor.next < records(t).size()) ready += records(t)[cursor.next].gap;
    cursor.ready_at = std::max(cursor.ready_at, ready);
  }

  /// The earliest ready time of a thread blocked only on time, not on its
  /// occupancy window (a full window wakes on a completion, a path event).
  [[nodiscard]] Cycle next_arrival(Cycle now) const {
    Cycle earliest = kNever;
    for (std::uint32_t t = 0; t < threads_ && records_left_ > 0; ++t) {
      const Cursor& cursor = cursors_[t];
      if (cursor.next >= records(t).size() ||
          !window_open(cursor, records(t)[cursor.next].op)) {
        continue;
      }
      if (cursor.ready_at <= now) return now + 1;
      earliest = std::min(earliest, cursor.ready_at);
    }
    return earliest;
  }

 private:
  struct Cursor {
    std::size_t next = 0;
    std::uint32_t loads = 0;   ///< outstanding loads + atomics
    std::uint32_t stores = 0;  ///< store-buffer occupancy
    Cycle ready_at = 0;
    Tag tag = 0;
    bool stamped = false;  ///< core_issue emitted for the current record
  };

  /// The thread's occupancy window admits a record of kind `op`: a fence
  /// waits for all of the thread's operations.
  [[nodiscard]] bool window_open(const Cursor& cursor, MemOp op) const {
    switch (op) {
      case MemOp::kFence:
        return cursor.loads == 0 && cursor.stores == 0;
      case MemOp::kStore:
        return cursor.stores < kMaxStoresPerThread;
      case MemOp::kLoad:
      case MemOp::kAtomic:
        return cursor.loads < kMaxLoadsPerThread;
    }
    return false;
  }

  std::vector<Cursor> cursors_;
  std::uint64_t outstanding_ = 0;
};

/// SIMT lane-group feed (FeedMode::kLaneGroup): threads form consecutive
/// groups of config.warp_lanes lanes. A group presents record step `s` of
/// every lane in lane order — gated on all lanes having paid their compute
/// gaps — and advances to step `s+1` only once every lane's step-`s`
/// request completed, reproducing a warp scheduler's lockstep issue. Lanes
/// with shorter streams simply drop out of later steps. Each lane has at
/// most one request in flight, so a per-lane tag cursor never reissues a
/// live (tid, tag).
class LaneGroupFeed : public Feed {
 public:
  LaneGroupFeed(const MemoryTrace& trace, const SimConfig& config,
                std::uint32_t threads, const DriveOptions& options,
                BusyUntil& feeder_until)
      : Feed(trace, config, threads, options, feeder_until),
        lanes_(threads_),
        width_(std::max<std::uint32_t>(1, config.warp_lanes)) {
    for (std::uint32_t t = 0; t < threads_; ++t) {
      lanes_[t].ready_at = first_arrival(t);
    }
    for (std::uint32_t first = 0; first < threads_; first += width_) {
      Group group;
      group.first = first;
      group.end = std::min(first + width_, threads_);
      for (std::uint32_t t = first; t < group.end; ++t) {
        group.steps = std::max(group.steps, records(t).size());
        group.waiting += participates(group, t) ? 1 : 0;
      }
      groups_.push_back(group);
    }
  }

  [[nodiscard]] bool pending() const {
    return records_left_ > 0 || outstanding_ > 0;
  }

  /// Groups in index order, lanes in lane order, until the path's intake
  /// ports reject one.
  template <typename Path>
  void intake(Path& path, Cycle now) {
    if (records_left_ == 0) return;
    for (const Group& group : groups_) {
      if (group.step >= group.steps || gate(group) > now) continue;
      for (std::uint32_t t = group.first; t < group.end; ++t) {
        Lane& lane = lanes_[t];
        if (!participates(group, t) || lane.issued) continue;
        if (!present(path, records(t)[group.step], t, lane.tag, lane.stamped,
                     now)) {
          return;
        }
        lane.issued = true;
        ++outstanding_;
        --records_left_;
      }
    }
  }

  /// A lane's request completed; its group advances once it was the
  /// step's last.
  void complete(const CompletedAccess& done) {
    const std::uint32_t t = done.target.tid;
    if (t >= threads_) return;
    Lane& lane = lanes_[t];
    lane.completed_at = std::max(lane.completed_at, done.completed);
    --outstanding_;
    Group& group = groups_[t / width_];
    if (--group.waiting != 0) return;
    ++group.step;
    for (std::uint32_t u = group.first; u < group.end; ++u) {
      Lane& next = lanes_[u];
      next.issued = false;
      ++next.tag;
      if (!participates(group, u)) continue;
      ++group.waiting;
      next.ready_at = std::max(
          next.ready_at, next.completed_at + records(u)[group.step].gap);
    }
  }

  /// The earliest gate of a group with unissued lanes (a fully issued
  /// group wakes on a completion, a path event).
  [[nodiscard]] Cycle next_arrival(Cycle now) const {
    Cycle earliest = kNever;
    if (records_left_ == 0) return earliest;
    for (const Group& group : groups_) {
      if (group.step >= group.steps) continue;
      bool unissued = false;
      for (std::uint32_t t = group.first; t < group.end && !unissued; ++t) {
        unissued = participates(group, t) && !lanes_[t].issued;
      }
      if (!unissued) continue;
      const Cycle at = gate(group);
      if (at <= now) return now + 1;
      earliest = std::min(earliest, at);
    }
    return earliest;
  }

 private:
  struct Lane {
    bool issued = false;     ///< current step's request accepted
    Cycle ready_at = 0;      ///< gap pacing for the current step
    Cycle completed_at = 0;  ///< last completion (next step's gap base)
    Tag tag = 0;
    bool stamped = false;  ///< core_issue emitted for the current step
  };
  struct Group {
    std::uint32_t first = 0;  ///< lanes [first, end)
    std::uint32_t end = 0;
    std::size_t step = 0;
    std::size_t steps = 0;  ///< longest lane stream in the group
    /// Participating lanes whose request for this step has not completed.
    std::uint32_t waiting = 0;
  };

  [[nodiscard]] bool participates(const Group& group, std::uint32_t t) const {
    return records(t).size() > group.step;
  }
  /// Lockstep gate: the step may start only once every participating lane
  /// has paid its gap.
  [[nodiscard]] Cycle gate(const Group& group) const {
    Cycle at = 0;
    for (std::uint32_t t = group.first; t < group.end; ++t) {
      if (participates(group, t)) at = std::max(at, lanes_[t].ready_at);
    }
    return at;
  }

  std::vector<Lane> lanes_;
  std::vector<Group> groups_;
  std::uint32_t width_;
  std::uint64_t outstanding_ = 0;
};

/// The driver's one cycle loop (docs/PARALLELISM.md). Each visited cycle
/// the feed presents requests, the path ticks, completions drain back to
/// the feed, and the serial point observes the cycle. The step clock then
/// moves on one cycle; the event clock jumps to the earlier of the feed's
/// next arrival and the path's next event.
template <typename Path, typename FeedT>
void run_loop(Path& path, FeedT feed, const DriveOptions& options,
              const SerialPoint& serial, LoopResult& result) {
  const bool event = options.engine == Engine::kEvent;
  const Cycle livelock_at = options.inject_livelock_at;
  Cycle now = 0;
  serial.start_laps();
  while (feed.pending() || !path.idle()) {
    feed.intake(path, now);
    path.tick(now);
    // Livelock fault injection (watchdog testing): past the trigger cycle
    // completions are left undelivered in the path.
    if (livelock_at == 0 || now < livelock_at) {
      for (const CompletedAccess& done : path.drain(now)) {
        result.makespan = std::max(result.makespan, done.completed);
        ++result.completions;
        MAC3D_OBS_STAMP(options.sink, Stage::kCoreComplete, done.target.tid,
                        done.target.tag, done.completed);
        feed.complete(done);
      }
    }
    if (serial.observe(now)) break;
    if (!event) {
      ++now;
      continue;
    }
    const Cycle path_next = path.next_event(now);  // 0 when idle
    now = serial.advance(
        now, std::min(feed.next_arrival(now),
                      path_next > now ? path_next : kNever));
  }
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

/// The run's census rows (the feeder, the path's units, the device's
/// banks/vaults/links), sampler probes and snapshot counters and gauges.
/// Every path registers the same column set: queue_occupancy,
/// issue_backlog, then the device series.
template <typename Path>
void register_telemetry(Path& path, const HmcDevice& device,
                        const LoopResult& loop, ActivityCensus* census,
                        CycleSampler* sampler, SnapshotStreamer* snapshot) {
  if (census != nullptr) {
    census->add_threshold("node0.feeder", &loop.feeder_until);
    path.register_census(*census, "node0.");
    device.register_census(*census, "node0.");
  }
  if (sampler != nullptr) {
    sampler->add_probe("queue_occupancy", [&path](Cycle) {
      return static_cast<double>(path.occupancy());
    });
    sampler->add_probe("issue_backlog", [&path](Cycle) {
      return static_cast<double>(path.issue_backlog());
    });
    sampler->add_probe("device_in_flight", [&device](Cycle) {
      return static_cast<double>(device.in_flight());
    });
    sampler->add_probe("banks_busy", [&device](Cycle cycle) {
      return device.banks_busy_fraction(cycle);
    });
    for (std::uint32_t v = 0; v < device.vault_count(); ++v) {
      sampler->add_probe("vault" + std::to_string(v) + "_busy",
                         [&device, v](Cycle cycle) {
                           return device.vault_busy_fraction(v, cycle);
                         });
    }
    for (std::uint32_t l = 0; l < device.link_count(); ++l) {
      sampler->add_probe("link" + std::to_string(l) + "_backlog",
                         [&device, l](Cycle cycle) {
                           return static_cast<double>(
                               device.link_request_backlog(l, cycle));
                         });
      sampler->add_probe("link" + std::to_string(l) + "_flits",
                         [&device, l](Cycle) {
                           return static_cast<double>(
                               device.link_flits_sent(l));
                         });
    }
  }
  if (snapshot != nullptr) {
    snapshot->add_counter(SnapshotStreamer::kInjectedCounter,
                          [&path] { return path.injected(); });
    snapshot->add_counter(SnapshotStreamer::kCompletionsCounter,
                          [&loop] { return loop.completions; });
    snapshot->add_gauge("queue_occupancy", [&path] {
      return static_cast<double>(path.occupancy());
    });
    const HmcStats& stats = device.stats();
    snapshot->add_counter("packets", [&stats] { return stats.requests; });
    snapshot->add_counter("data_bytes", [&stats] { return stats.data_bytes; });
    snapshot->add_counter("link_bytes", [&stats] { return stats.link_bytes; });
    snapshot->add_gauge("device_in_flight", [&device] {
      return static_cast<double>(device.in_flight());
    });
    snapshot->attach_census(census);
  }
}

/// One run of the trace through a fresh device and `Path` adapter.
template <typename Path>
DriverResult drive(const MemoryTrace& trace, const SimConfig& config,
                   std::uint32_t threads, const DriveOptions& options) {
  HmcDevice device(config);
  Path path(config, device);
  CheckWindow checks(options.checks);
  if (options.checks != nullptr) {
    device.attach_checks(options.checks);
    path.attach_checks(options.checks, "");
  }
  if (options.sink != nullptr) {
    path.attach_sink(options.sink);
    device.attach_sink(options.sink);
  }
  LoopResult loop;
  SerialPoint serial(options.census, options.sampler, options.snapshot,
                     options.profiler, path.name());
  register_telemetry(path, device, loop, options.census, options.sampler,
                     options.snapshot);
  BusyUntil& fed = loop.feeder_until;
  switch (options.mode) {
    case FeedMode::kClosedLoop:
      run_loop(path, ClosedLoopFeed(trace, config, threads, options, fed),
               options, serial, loop);
      break;
    case FeedMode::kLaneGroup:
      run_loop(path, LaneGroupFeed(trace, config, threads, options, fed),
               options, serial, loop);
      break;
    case FeedMode::kStreaming:
      run_loop(path, StreamingFeed(trace, config, threads, options, fed),
               options, serial, loop);
      break;
  }
  serial.finish(loop.makespan);

  DriverResult result;
  result.path = path.name();
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
  path.report(result);
  checks.close(result);
  return result;
}

}  // namespace

DriverResult run_policy(CoalescerPolicy policy, const MemoryTrace& trace,
                        const SimConfig& config, std::uint32_t threads,
                        const DriveOptions& options) {
  switch (policy) {
    case CoalescerPolicy::kRaw:
      return drive<RawAdapter>(trace, config, threads, options);
    case CoalescerPolicy::kMshr:
      return drive<MshrAdapter>(trace, config, threads, options);
    case CoalescerPolicy::kWarp:
      return drive<WarpAdapter>(trace, config, threads, options);
    case CoalescerPolicy::kMac:
      break;
  }
  return drive<MacAdapter>(trace, config, threads, options);
}

}  // namespace mac3d
