#include "obs/lifecycle.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/json.hpp"

namespace mac3d {
namespace {

constexpr std::uint32_t kMaxLanesPerThread = 256;

[[nodiscard]] bool is_entry_stage(Stage stage) noexcept {
  return stage == Stage::kCoreIssue || stage == Stage::kRouterEnqueue;
}

}  // namespace

LifecycleTracer::~LifecycleTracer() { finish(); }

bool LifecycleTracer::open_trace(const std::string& file) {
  trace_out_.open(file, std::ios::out | std::ios::trunc);
  if (!trace_out_.is_open()) return false;
  trace_out_ << "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  trace_open_ = true;
  return true;
}

void LifecycleTracer::ensure_path() {
  if (current_ == nullptr) begin_path("default");
}

void LifecycleTracer::close_window() {
  // Requests still open when a window closes fall into two buckets: a
  // healthy monotone prefix that simply had not completed by the drain
  // cutoff (normal for truncated runs — in_flight_at_end), versus a
  // genuinely broken partial lifecycle (abandoned — an audit failure).
  for (auto& [key, record] : open_) {
    const auto& stamps = record.stamps;
    bool healthy = !stamps.empty() && is_entry_stage(stamps.front().stage);
    for (std::size_t i = 1; healthy && i < stamps.size(); ++i) {
      if (stamps[i].cycle < stamps[i - 1].cycle ||
          static_cast<int>(stamps[i].stage) <=
              static_cast<int>(stamps[i - 1].stage)) {
        healthy = false;
      }
    }
    if (healthy) {
      ++in_flight_at_end_;
    } else {
      ++abandoned_records_;
    }
    release_lane(record);
  }
  open_.clear();
  lanes_.clear();
  pending_hops_.clear();
  node_tracks_named_.clear();  // track-name metadata is per-window pid
}

void LifecycleTracer::begin_path(std::string name) {
  close_window();

  paths_.emplace_back();
  current_ = &paths_.back();
  current_->name = std::move(name);

  if (trace_open_) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%zu,\"name\":\"process_name\","
                  "\"args\":{\"name\":\"%s\"}}",
                  paths_.size(), json_escape(current_->name).c_str());
    emit_event(buf);
  }
}

void LifecycleTracer::finish() {
  if (finished_) return;
  close_window();
  if (trace_open_) {
    trace_out_ << "\n]}\n";
    trace_out_.close();
    trace_open_ = false;
  }
  finished_ = true;
}

void LifecycleTracer::on_stage(Stage stage, ThreadId tid, Tag tag,
                               Cycle cycle) {
  ensure_path();
  const RequestGid key = request_gid(tid, tag);
  auto it = open_.find(key);
  if (it == open_.end()) {
    Record record;
    record.tid = tid;
    record.tag = tag;
    record.stamps.push_back({stage, cycle});
    assign_lane(record);
    it = open_.emplace(key, std::move(record)).first;
  } else {
    it->second.stamps.push_back({stage, cycle});
  }
  if (stage == Stage::kCoreComplete) {
    Record record = std::move(it->second);
    open_.erase(it);
    finalize_record(std::move(record));
  }
}

void LifecycleTracer::on_merge(ThreadId tid, Tag tag, ThreadId leader_tid,
                               Tag leader_tag, Cycle cycle) {
  ensure_path();
  ++current_->merges;
  if (!trace_open_) return;
  const auto merged = open_.find(request_gid(tid, tag));
  const auto leader = open_.find(request_gid(leader_tid, leader_tag));
  if (merged == open_.end() || leader == open_.end()) return;
  if (!merged->second.has_lane || !leader->second.has_lane) return;
  const std::uint64_t id = ++flow_ids_;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"s\",\"cat\":\"merge\",\"name\":\"merge\","
                "\"id\":%" PRIu64 ",\"pid\":%zu,\"tid\":%" PRIu64
                ",\"ts\":%" PRIu64 "}",
                id, paths_.size(), chrome_tid(merged->second), cycle);
  emit_event(buf);
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"merge\",\"name\":"
                "\"merge\",\"id\":%" PRIu64 ",\"pid\":%zu,\"tid\":%" PRIu64
                ",\"ts\":%" PRIu64 "}",
                id, paths_.size(), chrome_tid(leader->second), cycle);
  emit_event(buf);
}

void LifecycleTracer::on_hop(Hop hop, ThreadId tid, Tag tag, NodeId src,
                             NodeId dest, Cycle cycle) {
  ensure_path();
  ++hop_events_;
  if (!trace_open_) return;

  // Pair each send with its matching recv through a per-(gid, leg) queue:
  // the send mints a flow id, the recv consumes it, and the two events
  // render as one s -> f arrow between the two node tracks.
  const bool is_send = hop == Hop::kRequestSend || hop == Hop::kResponseSend;
  const std::uint64_t leg =
      (hop == Hop::kRequestSend || hop == Hop::kRequestRecv) ? 0 : 1;
  const std::uint64_t flow_key =
      (static_cast<std::uint64_t>(request_gid(tid, tag)) << 1) | leg;
  std::uint64_t id = 0;
  if (is_send) {
    id = ++flow_ids_;
    pending_hops_[flow_key].push_back({id, src, dest});
  } else {
    auto pending = pending_hops_.find(flow_key);
    if (pending == pending_hops_.end() || pending->second.empty()) return;
    const PendingHop& sent = pending->second.front();
    id = sent.id;
    // The send endpoint knows the true link; recv stampers may only know
    // the node they observed at (src == dest there).
    src = sent.src;
    dest = sent.dest;
    pending->second.erase(pending->second.begin());
    if (pending->second.empty()) pending_hops_.erase(pending);
  }

  // Anchor each flow endpoint in a one-cycle slice on the observing node's
  // fabric track — Perfetto binds s/f events to an enclosing slice, so the
  // anchors are what make the arrow render (across node tracks, since the
  // send anchors on `src` and the recv on `dest`).
  const unsigned node = static_cast<unsigned>(is_send ? src : dest);
  const std::uint64_t track = node_track(node);
  const std::size_t pid = paths_.size();
  const std::string_view hop_name = to_string(hop);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"X\",\"cat\":\"hop\",\"name\":\"%.*s n%u-n%u\","
                "\"pid\":%zu,\"tid\":%" PRIu64 ",\"ts\":%" PRIu64
                ",\"dur\":1,\"args\":{\"tid\":%u,\"tag\":%u}}",
                static_cast<int>(hop_name.size()), hop_name.data(),
                static_cast<unsigned>(src), static_cast<unsigned>(dest), pid,
                track, cycle, static_cast<unsigned>(tid),
                static_cast<unsigned>(tag));
  emit_event(buf);
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"%c\",%s\"cat\":\"hop\",\"name\":\"n%u-n%u\","
                "\"id\":%" PRIu64 ",\"pid\":%zu,\"tid\":%" PRIu64
                ",\"ts\":%" PRIu64 "}",
                is_send ? 's' : 'f', is_send ? "" : "\"bp\":\"e\",",
                static_cast<unsigned>(src), static_cast<unsigned>(dest), id,
                pid, track, cycle);
  emit_event(buf);
}

void LifecycleTracer::finalize_record(Record&& record) {
  audit(record);

  auto& path = *current_;
  const auto& stamps = record.stamps;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    if (stamps[i].cycle >= stamps[i - 1].cycle) {
      path.stage_latency[static_cast<std::size_t>(stamps[i].stage)].add(
          stamps[i].cycle - stamps[i - 1].cycle);
    }
  }
  if (stamps.back().cycle >= stamps.front().cycle) {
    path.request_latency.add(stamps.back().cycle - stamps.front().cycle);
  }
  ++path.completed;
  ++completed_total_;

  if (trace_open_) emit_record(record);
  release_lane(record);
  if (keep_records_) path.records.push_back(std::move(record));
}

void LifecycleTracer::audit(const Record& record) {
  const auto& stamps = record.stamps;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    if (stamps[i].cycle < stamps[i - 1].cycle ||
        static_cast<int>(stamps[i].stage) <=
            static_cast<int>(stamps[i - 1].stage)) {
      ++monotonicity_errors_;
    }
  }
  const bool has_insert =
      std::any_of(stamps.begin(), stamps.end(), [](const Stamp& s) {
        return s.stage == Stage::kQueueInsert;
      });
  const bool has_match =
      std::any_of(stamps.begin(), stamps.end(), [](const Stamp& s) {
        return s.stage == Stage::kResponseMatch;
      });
  if (!is_entry_stage(stamps.front().stage) || !has_insert || !has_match ||
      stamps.back().stage != Stage::kCoreComplete) {
    ++completeness_errors_;
  }
}

void LifecycleTracer::assign_lane(Record& record) {
  if (!trace_open_) return;
  auto& lanes = lanes_[record.tid];
  if (!lanes.free.empty()) {
    record.lane = lanes.free.back();
    lanes.free.pop_back();
  } else {
    record.lane = lanes.next++;
    if (record.lane < kMaxLanesPerThread) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":%zu,\"tid\":%" PRIu64
                    ",\"name\":\"thread_name\",\"args\":{\"name\":\"t%u.%u\"}}",
                    paths_.size(),
                    (static_cast<std::uint64_t>(record.tid) << 8) | record.lane,
                    static_cast<unsigned>(record.tid),
                    static_cast<unsigned>(record.lane));
      emit_event(buf);
    }
  }
  record.has_lane = true;
}

void LifecycleTracer::release_lane(const Record& record) {
  if (!record.has_lane) return;
  lanes_[record.tid].free.push_back(record.lane);
}

std::uint64_t LifecycleTracer::node_track(unsigned node) {
  // Per-node fabric tracks live above every per-thread lane track:
  // chrome_tid() maxes out at (2^16 - 1) << 8 | 255 < 2^24.
  constexpr std::uint64_t kNodeTrackBase = 1ull << 24;
  if (node_tracks_named_.size() <= node) node_tracks_named_.resize(node + 1);
  if (!node_tracks_named_[node]) {
    node_tracks_named_[node] = true;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%zu,\"tid\":%" PRIu64
                  ",\"name\":\"thread_name\",\"args\":{\"name\":"
                  "\"node%u.fabric\"}}",
                  paths_.size(), kNodeTrackBase + node, node);
    emit_event(buf);
  }
  return kNodeTrackBase + node;
}

std::uint64_t LifecycleTracer::chrome_tid(const Record& record) const {
  // Per-thread virtual lanes: one Perfetto track per concurrently open
  // request of a thread. Lanes past kMaxLanesPerThread share the last
  // track (cosmetic only; B/E events still balance).
  const std::uint32_t lane = std::min(record.lane, kMaxLanesPerThread - 1);
  return (static_cast<std::uint64_t>(record.tid) << 8) | lane;
}

void LifecycleTracer::emit_record(const Record& record) {
  const auto& stamps = record.stamps;
  const std::uint64_t tid = chrome_tid(record);
  const std::size_t pid = paths_.size();
  char buf[224];
  // Enclosing request slice spanning the whole lifecycle.
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"B\",\"cat\":\"request\",\"name\":\"t%u#%u\","
                "\"pid\":%zu,\"tid\":%" PRIu64 ",\"ts\":%" PRIu64
                ",\"args\":{\"tid\":%u,\"tag\":%u}}",
                static_cast<unsigned>(record.tid),
                static_cast<unsigned>(record.tag), pid, tid,
                stamps.front().cycle, static_cast<unsigned>(record.tid),
                static_cast<unsigned>(record.tag));
  emit_event(buf);
  // One nested slice per inter-stage segment (zero-length segments are
  // elided: at this resolution they carry no information).
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    if (stamps[i].cycle <= stamps[i - 1].cycle) continue;
    const std::string_view name = to_string(stamps[i].stage);
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"B\",\"cat\":\"stage\",\"name\":\"%.*s\","
                  "\"pid\":%zu,\"tid\":%" PRIu64 ",\"ts\":%" PRIu64 "}",
                  static_cast<int>(name.size()), name.data(), pid, tid,
                  stamps[i - 1].cycle);
    emit_event(buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"E\",\"pid\":%zu,\"tid\":%" PRIu64
                  ",\"ts\":%" PRIu64 "}",
                  pid, tid, stamps[i].cycle);
    emit_event(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"E\",\"pid\":%zu,\"tid\":%" PRIu64 ",\"ts\":%" PRIu64
                "}",
                pid, tid, stamps.back().cycle);
  emit_event(buf);
}

void LifecycleTracer::emit_counter(std::string_view name,
                                   std::string_view series, Cycle ts,
                                   std::uint64_t value) {
  if (!trace_open_) return;
  ensure_path();
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"C\",\"cat\":\"latency\",\"name\":\"%.*s\","
                "\"pid\":%zu,\"ts\":%" PRIu64 ",\"args\":{\"%.*s\":%" PRIu64
                "}}",
                static_cast<int>(name.size()), name.data(), paths_.size(), ts,
                static_cast<int>(series.size()), series.data(), value);
  emit_event(buf);
}

void LifecycleTracer::emit_event(const std::string& json) {
  if (events_written_ != 0) trace_out_ << ",\n";
  trace_out_ << json;
  ++events_written_;
}

const LifecycleTracer::PathTelemetry* LifecycleTracer::path(
    std::string_view name) const {
  for (auto it = paths_.rbegin(); it != paths_.rend(); ++it) {
    if (it->name == name) return &*it;
  }
  return nullptr;
}

}  // namespace mac3d
