#include "traced_loops.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "mem/hmc_device.hpp"
#include "sim/memory_path.hpp"
#include "sim/tag_allocator.hpp"

namespace perf {

using mac3d::Cycle;
using mac3d::MemoryPath;
using mac3d::MemoryTrace;
using mac3d::MemRecord;
using mac3d::RawRequest;
using mac3d::ThreadId;

double Attribution::node_imbalance() const noexcept {
  if (node_tick_by_node_s.empty()) return 0.0;
  double total = 0.0;
  double peak = 0.0;
  for (const double seconds : node_tick_by_node_s) {
    total += seconds;
    peak = std::max(peak, seconds);
  }
  const double mean = total / static_cast<double>(node_tick_by_node_s.size());
  return mean > 0.0 ? peak / mean : 0.0;
}

void Attribution::add(const Attribution& other) {
  feed_s += other.feed_s;
  try_accept_s += other.try_accept_s;
  tick_s += other.tick_s;
  drain_s += other.drain_s;
  sim_oracle_s += other.sim_oracle_s;
  presented += other.presented;
  accepted += other.accepted;
  empty_drains += other.empty_drains;
  node_tick_s += other.node_tick_s;
  arch_oracle_s += other.arch_oracle_s;
  drain_check_s += other.drain_check_s;
  node_tick_by_node_s.resize(
      std::max(node_tick_by_node_s.size(), other.node_tick_by_node_s.size()));
  for (std::size_t i = 0; i < other.node_tick_by_node_s.size(); ++i) {
    node_tick_by_node_s[i] += other.node_tick_by_node_s[i];
  }
  node_ticks += other.node_ticks;
  fabric_messages += other.fabric_messages;
  loop_s += other.loop_s;
  clipped_spans += other.clipped_spans;
}

namespace {

constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

/// The span clock. On x86-64 it is the time-stamp counter, read without
/// the fence and the vDSO call of a steady_clock read, so a span disturbs
/// the calls it times less (many take well under 100 ns). Elsewhere it is
/// steady_clock. calibrate_span_cost() converts ticks to seconds.
std::uint64_t span_ticks() noexcept {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      Clock::now().time_since_epoch().count());
#endif
}

struct SpanSum {
  std::uint64_t ticks = 0;
  std::uint64_t spans = 0;
  std::uint64_t extra_reads = 0;  ///< spans timed with one extra clock read
};

/// Picks the sampled visited cycles, scales their spans back up, and
/// measures the clock's cost in place: in every other sampled burst each
/// span makes one extra clock read inside its interval, so the mean span
/// time of those bursts less that of the others is one read's cost in
/// this loop's own context. The calibration loop alone understates it by
/// a few ns a read, which several short spans per cycle turn into a
/// tenth or more of the loop.
class Recorder {
 public:
  Recorder(bool traced, SpanCost cost)
      : traced_(traced),
        cost_(cost),
        max_ticks_(static_cast<std::uint64_t>(kMaxSpanS /
                                              cost.seconds_per_tick)) {}

  /// Samples bursts of kSampleBurst consecutive visited cycles, one in
  /// kSampleEvery of them overall: inside a burst the span branches stay
  /// predicted, where lone sampled cycles would add a mispredict to every
  /// span's interval. Extra reads alternate by burst.
  void begin_cycle() noexcept {
    const std::uint64_t slot = visited_ % (kSampleEvery * kSampleBurst);
    on_ = traced_ && slot < kSampleBurst;
    ++visited_;
    if (!on_) return;
    ++sampled_;
    if (slot == 0) extra_ = !extra_;
  }
  /// Samples every cycle from now on, without extra reads (calibration).
  void sample_always() noexcept { traced_ = on_ = true; }
  [[nodiscard]] bool on() const noexcept { return on_; }
  [[nodiscard]] bool extra_read() const noexcept { return extra_; }
  [[nodiscard]] std::uint64_t visited() const noexcept { return visited_; }
  [[nodiscard]] std::uint64_t clipped() const noexcept { return clipped_; }

  /// Adds one span's ticks, cut to kMaxSpanS: a span that long holds a
  /// host stall (a preemption), and scaled up by visited / sampled it would
  /// move its layer, and through the in-place read cost every layer, by
  /// 64 times the stall.
  void record(SpanSum& sum, std::uint64_t ticks) noexcept {
    if (ticks > max_ticks_) {
      ticks = max_ticks_;
      ++clipped_;
    }
    SpanSum& all = extra_ ? with_extra_ : plain_;
    for (SpanSum* target : {&sum, &all}) {
      target->ticks += ticks;
      ++target->spans;
      if (extra_) ++target->extra_reads;
    }
  }

  /// One clock read, in seconds, as measured in place (the calibrated
  /// cost until both kinds of sampled cycle have spans).
  [[nodiscard]] double read_s() const noexcept {
    if (plain_.spans == 0 || with_extra_.spans == 0) return cost_.inside;
    const auto mean = [](const SpanSum& sum) {
      return static_cast<double>(sum.ticks) / static_cast<double>(sum.spans);
    };
    return (mean(with_extra_) - mean(plain_)) * cost_.seconds_per_tick;
  }

  /// Host seconds the spans themselves cost the run: two reads and the
  /// bookkeeping per span, plus the extra reads.
  [[nodiscard]] double overhead_s() const noexcept {
    const double spans = static_cast<double>(plain_.spans + with_extra_.spans);
    const double extra = static_cast<double>(with_extra_.extra_reads);
    return spans * (2.0 * read_s() + bookkeeping_s()) + extra * read_s();
  }

  /// Self seconds of `sum` over every visited cycle. A span's interval
  /// holds one read (the end of its first, the start of its second) plus
  /// its extra read if any; a nested `child` also costs its parent the
  /// rest of its two reads and its bookkeeping.
  [[nodiscard]] double self_s(const SpanSum& sum,
                              const SpanSum* child = nullptr) const noexcept {
    if (sampled_ == 0) return 0.0;
    const double read = read_s();
    double self = static_cast<double>(sum.ticks) * cost_.seconds_per_tick -
                  read * static_cast<double>(sum.spans + sum.extra_reads);
    if (child != nullptr) {
      self -= static_cast<double>(child->ticks) * cost_.seconds_per_tick +
              (read + bookkeeping_s()) * static_cast<double>(child->spans);
    }
    return self * static_cast<double>(visited_) /
           static_cast<double>(sampled_);
  }

 private:
  /// A span's cost beyond its two reads (calibrated).
  [[nodiscard]] double bookkeeping_s() const noexcept {
    return std::max(0.0, cost_.whole - 2.0 * cost_.inside);
  }

  bool traced_;
  SpanCost cost_;
  std::uint64_t max_ticks_;
  std::uint64_t clipped_ = 0;
  bool on_ = false;
  bool extra_ = false;
  std::uint64_t visited_ = 0;
  std::uint64_t sampled_ = 0;
  SpanSum plain_;       ///< every span of the cycles without extra reads
  SpanSum with_extra_;  ///< every span of the cycles with them
};

/// Times its scope into `sum` on sampled cycles; a branch otherwise.
class Span {
 public:
  Span(Recorder& recorder, SpanSum& sum)
      : recorder_(recorder.on() ? &recorder : nullptr), sum_(sum) {
    if (recorder_ == nullptr) return;
    start_ = span_ticks();
    if (recorder_->extra_read()) (void)span_ticks();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (recorder_ != nullptr) recorder_->record(sum_, span_ticks() - start_);
  }

 private:
  Recorder* recorder_;
  SpanSum& sum_;
  std::uint64_t start_ = 0;
};

struct StreamSums {
  SpanSum feed;
  SpanSum try_accept;
  SpanSum tick;
  SpanSum drain;
  SpanSum oracle;
};

struct LoopEnd {
  Cycle makespan = 0;
  std::uint64_t completions = 0;
};

RawRequest make_request(const MemRecord& record, ThreadId tid,
                        mac3d::Tag tag, std::uint32_t cores) {
  RawRequest request;
  request.addr = record.addr;
  request.op = record.op;
  request.size = record.size;
  request.tid = tid;
  request.tag = tag;
  request.core = static_cast<mac3d::CoreId>(tid % cores);
  return request;
}

/// Presents one request; counts every attempt.
bool present(MemoryPath& path, const RawRequest& request, Cycle now,
             Recorder& recorder, StreamSums& sums, Attribution& out) {
  ++out.presented;
  Span span(recorder, sums.try_accept);
  return path.try_accept(request, now);
}

/// Ticks and drains the path for `now`; returns the completions.
std::vector<mac3d::CompletedAccess> tick_and_drain(MemoryPath& path,
                                                   Cycle now,
                                                   Recorder& recorder,
                                                   StreamSums& sums,
                                                   Attribution& out) {
  {
    Span span(recorder, sums.tick);
    path.tick(now);
  }
  std::vector<mac3d::CompletedAccess> done;
  {
    Span span(recorder, sums.drain);
    done = path.drain(now);
  }
  if (done.empty()) ++out.empty_drains;
  return done;
}

/// run_streaming (src/sim/driver.cpp) on the event engine, no telemetry.
LoopEnd streaming(MemoryPath& path, const MemoryTrace& trace,
                  const mac3d::SimConfig& config, std::uint32_t threads,
                  Recorder& recorder, StreamSums& sums, Attribution& out) {
  struct ThreadCursor {
    std::size_t next = 0;
    Cycle arrive_at = 0;
  };
  threads = std::min(threads, trace.threads());
  std::vector<ThreadCursor> cursors(threads);
  std::vector<mac3d::TagAllocator> tags(threads, mac3d::TagAllocator(0));
  std::uint64_t records_left = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    const auto& records = trace.thread(static_cast<ThreadId>(t));
    records_left += records.size();
    if (!records.empty()) cursors[t].arrive_at = records.front().gap;
  }

  Cycle now = 0;
  LoopEnd end;
  std::uint32_t turn = 0;
  while (records_left > 0 || !path.idle()) {
    recorder.begin_cycle();
    {
      Span span(recorder, sums.feed);
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
          const RawRequest request = make_request(
              records[cursor.next], tid, tags[t].peek(), config.cores);
          if (!present(path, request, now, recorder, sums, out)) {
            intake_open = false;
            break;
          }
          ++out.accepted;
          tags[t].allocate();
          ++cursor.next;
          --records_left;
          if (cursor.next < records.size()) {
            cursor.arrive_at += records[cursor.next].gap;
          }
          turn = (t + 1) % threads;
          found = true;
          break;
        }
        if (!found) break;
      }
    }

    const auto done = tick_and_drain(path, now, recorder, sums, out);
    {
      Span span(recorder, sums.feed);
      for (const mac3d::CompletedAccess& access : done) {
        end.makespan = std::max(end.makespan, access.completed);
        ++end.completions;
        if (access.target.tid < threads) {
          tags[access.target.tid].release(access.target.tag);
        }
      }
    }

    Span span(recorder, sums.oracle);
    Cycle next = kNever;
    if (records_left > 0) {
      Cycle earliest = kNever;
      bool pending_now = false;
      for (std::uint32_t t = 0; t < threads; ++t) {
        const ThreadCursor& cursor = cursors[t];
        if (cursor.next >= trace.thread(static_cast<ThreadId>(t)).size()) {
          continue;
        }
        if (!tags[t].available()) continue;
        if (cursor.arrive_at <= now) {
          pending_now = true;
          break;
        }
        earliest = std::min(earliest, cursor.arrive_at);
      }
      next = pending_now ? now + 1 : earliest;
    }
    const Cycle path_next = path.next_event(now);
    if (path_next > now) next = std::min(next, path_next);
    now = (next == kNever || next <= now) ? now + 1 : next;
  }
  return end;
}

/// run_lane_group (src/sim/driver.cpp) on the event engine, no telemetry.
LoopEnd lane_group(MemoryPath& path, const MemoryTrace& trace,
                   const mac3d::SimConfig& config, std::uint32_t threads,
                   Recorder& recorder, StreamSums& sums, Attribution& out) {
  struct LaneState {
    bool issued = false;
    bool outstanding = false;
    Cycle ready_at = 0;
    Cycle completed_at = 0;
    mac3d::Tag tag = 0;
  };
  struct Group {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::size_t step = 0;
    std::size_t steps = 0;
  };
  threads = std::min(threads, trace.threads());
  const std::uint32_t lanes = std::max<std::uint32_t>(1, config.warp_lanes);
  std::vector<LaneState> lane_state(threads);
  std::vector<Group> groups;
  std::uint64_t records_left = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    const auto& records = trace.thread(static_cast<ThreadId>(t));
    records_left += records.size();
    if (!records.empty()) lane_state[t].ready_at = records.front().gap;
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
  const auto participates = [&trace](const Group& group, std::uint32_t t) {
    return trace.thread(static_cast<ThreadId>(t)).size() > group.step;
  };
  const auto group_gate = [&](const Group& group) -> Cycle {
    Cycle gate = 0;
    for (std::uint32_t l = 0; l < group.count; ++l) {
      const std::uint32_t t = group.first + l;
      if (!participates(group, t)) continue;
      gate = std::max(gate, lane_state[t].ready_at);
    }
    return gate;
  };

  Cycle now = 0;
  LoopEnd end;
  std::uint64_t outstanding_total = 0;
  while (records_left > 0 || outstanding_total > 0 || !path.idle()) {
    recorder.begin_cycle();
    {
      Span span(recorder, sums.feed);
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
          const RawRequest request = make_request(
              trace.thread(tid)[group.step], tid, lane.tag, config.cores);
          if (!present(path, request, now, recorder, sums, out)) {
            intake_open = false;
            break;
          }
          ++out.accepted;
          lane.issued = true;
          lane.outstanding = true;
          ++outstanding_total;
          --records_left;
        }
      }
    }

    const auto done = tick_and_drain(path, now, recorder, sums, out);
    {
      Span span(recorder, sums.feed);
      for (const mac3d::CompletedAccess& access : done) {
        end.makespan = std::max(end.makespan, access.completed);
        ++end.completions;
        const std::uint32_t t = access.target.tid;
        if (t >= threads) continue;
        LaneState& lane = lane_state[t];
        lane.outstanding = false;
        lane.completed_at = std::max(lane.completed_at, access.completed);
        --outstanding_total;
      }
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
          ++lane.tag;
          const auto& records = trace.thread(static_cast<ThreadId>(t));
          if (group.step < records.size()) {
            lane.ready_at = std::max(
                lane.ready_at, lane.completed_at + records[group.step].gap);
          }
        }
      }
    }

    Span span(recorder, sums.oracle);
    Cycle next = kNever;
    if (records_left > 0) {
      bool pending_now = false;
      Cycle earliest = kNever;
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
        if (!any_unissued) continue;
        const Cycle gate = group_gate(group);
        if (gate <= now) {
          pending_now = true;
          break;
        }
        earliest = std::min(earliest, gate);
      }
      next = pending_now ? now + 1 : earliest;
    }
    const Cycle path_next = path.next_event(now);
    if (path_next > now) next = std::min(next, path_next);
    now = (next == kNever || next <= now) ? now + 1 : next;
  }
  return end;
}

}  // namespace

SpanCost calibrate_span_cost() {
  SpanCost cost;
  const Clock::time_point clock_start = Clock::now();
  const std::uint64_t tick_start = span_ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t ticks = span_ticks() - tick_start;
  cost.seconds_per_tick =
      seconds_since(clock_start) /
      static_cast<double>(std::max<std::uint64_t>(1, ticks));

  // Empty spans, in blocks; the median block is robust to a preemption.
  constexpr std::size_t kBlocks = 21;
  constexpr int kSpans = 20000;
  Recorder recorder(false, cost);
  recorder.sample_always();
  std::vector<double> inside;
  std::vector<double> whole;
  for (std::size_t block = 0; block < kBlocks; ++block) {
    SpanSum sum;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      Span span(recorder, sum);
    }
    whole.push_back(seconds_since(start) / kSpans);
    inside.push_back(static_cast<double>(sum.ticks) * cost.seconds_per_tick /
                     kSpans);
  }
  const auto median = [](std::vector<double>& values) {
    std::nth_element(values.begin(), values.begin() + kBlocks / 2,
                     values.end());
    return values[kBlocks / 2];
  };
  cost.inside = median(inside);
  cost.whole = median(whole);
  return cost;
}

CopyResult stream_copy(const Inputs& inputs, const Kernel& kernel,
                       bool traced, SpanCost cost) {
  const WorkloadSpec& spec = *inputs.spec;
  mac3d::HmcDevice device(inputs.config);
  const std::unique_ptr<MemoryPath> path =
      mac3d::make_memory_path(inputs.config, device);
  Recorder recorder(traced, cost);
  StreamSums sums;
  CopyResult out;

  const Clock::time_point start = Clock::now();
  const LoopEnd end =
      spec.feed == mac3d::FeedMode::kLaneGroup
          ? lane_group(*path, kernel.trace, inputs.config, spec.threads,
                       recorder, sums, out.layers)
          : streaming(*path, kernel.trace, inputs.config, spec.threads,
                      recorder, sums, out.layers);
  out.seconds = seconds_since(start);

  out.fp.cycles = end.makespan;
  out.fp.packets = device.stats().requests;
  out.fp.completions = end.completions;
  out.visited = recorder.visited();
  Attribution& layers = out.layers;
  layers.feed_s = recorder.self_s(sums.feed, &sums.try_accept);
  layers.try_accept_s = recorder.self_s(sums.try_accept);
  layers.tick_s = recorder.self_s(sums.tick);
  layers.drain_s = recorder.self_s(sums.drain);
  layers.sim_oracle_s = recorder.self_s(sums.oracle);
  if (traced) layers.loop_s = out.seconds - recorder.overhead_s();
  layers.clipped_spans = recorder.clipped();
  return out;
}

CopyResult system_copy(const Inputs& inputs, const Kernel& kernel,
                       mac3d::Engine engine, bool traced, SpanCost cost) {
  const std::unique_ptr<mac3d::System> system = make_system(inputs, kernel);
  std::vector<mac3d::Node*> nodes;
  for (std::size_t i = 0; i < system->node_count(); ++i) {
    nodes.push_back(&system->node(i));
  }
  mac3d::Interconnect* fabric =
      nodes.size() > 1 ? &system->fabric() : nullptr;
  const bool event = engine == mac3d::Engine::kEvent;
  constexpr Cycle kMaxCycles = 2'000'000'000ULL;  // System::run's default
  Recorder recorder(traced, cost);
  std::vector<SpanSum> node_tick(nodes.size());
  SpanSum drain_check;
  SpanSum oracle;

  const Clock::time_point start = Clock::now();
  bool completed = false;
  Cycle now = 0;
  while (now < kMaxCycles) {
    recorder.begin_cycle();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      Span span(recorder, node_tick[i]);
      nodes[i]->tick(now, fabric);
    }
    bool drained = false;
    {
      Span span(recorder, drain_check);
      drained = fabric == nullptr || fabric->idle();
      if (drained) {
        for (const mac3d::Node* node : nodes) {
          if (!node->drained()) {
            drained = false;
            break;
          }
        }
      }
    }
    if (drained) {
      completed = true;
      ++now;
      break;
    }
    if (!event) {
      ++now;
      continue;
    }
    // System::next_wake without the snapshot clamp.
    Span span(recorder, oracle);
    Cycle next = 0;
    const auto merge = [&next, now](Cycle candidate) {
      if (candidate == 0) return;
      if (candidate <= now) candidate = now + 1;
      if (next == 0 || candidate < next) next = candidate;
    };
    for (const mac3d::Node* node : nodes) {
      merge(node->next_activity_cycle(now));
    }
    if (fabric != nullptr) merge(fabric->next_delivery());
    if (next == 0) next = now + 1;
    now = next < kMaxCycles ? next : kMaxCycles;
  }
  CopyResult out;
  out.seconds = seconds_since(start);

  out.fp = system_fingerprint(*system, now, completed);
  out.visited = recorder.visited();
  Attribution& layers = out.layers;
  for (const SpanSum& sum : node_tick) {
    layers.node_tick_by_node_s.push_back(recorder.self_s(sum));
    layers.node_tick_s += layers.node_tick_by_node_s.back();
  }
  layers.node_ticks = out.visited * nodes.size();
  layers.drain_check_s = recorder.self_s(drain_check);
  layers.arch_oracle_s = recorder.self_s(oracle);
  if (traced) layers.loop_s = out.seconds - recorder.overhead_s();
  layers.clipped_spans = recorder.clipped();
  layers.fabric_messages = system->fabric().messages();
  return out;
}

}  // namespace perf
