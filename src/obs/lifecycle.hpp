// LifecycleTracer: the standard EventSink. Collects per-request stage
// stamps, audits them (monotonic, complete), folds them into per-path
// per-stage latency Histograms, and optionally streams the full timeline
// as Chrome/Perfetto trace-event JSON.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <fstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "obs/obs.hpp"

namespace mac3d {

class LifecycleTracer final : public EventSink {
 public:
  struct Stamp {
    Stage stage;
    Cycle cycle;
  };

  /// One raw request's full stamped lifecycle.
  struct Record {
    ThreadId tid = 0;
    Tag tag = 0;
    std::uint32_t lane = 0;  ///< virtual track within the thread (trace only)
    bool has_lane = false;
    std::vector<Stamp> stamps;
  };

  /// Aggregated telemetry for one memory path (one begin_path window).
  struct PathTelemetry {
    std::string name;
    /// stage_latency[s] = distribution of (cycle at stage s) − (cycle at
    /// the previous stamped stage) — i.e. time *spent reaching* stage s.
    std::array<Histogram, kStageCount> stage_latency;
    /// End-to-end core_issue -> core_complete distribution.
    Histogram request_latency{40};
    std::uint64_t completed = 0;
    std::uint64_t merges = 0;
    /// Full records, retained only under keep_records(true) (tests).
    std::vector<Record> records;
  };

  LifecycleTracer() = default;
  ~LifecycleTracer() override;

  /// Start streaming Chrome trace-event JSON to `file`. Call before the
  /// first begin_path(). Returns false (and stays off) if the file cannot
  /// be opened.
  bool open_trace(const std::string& file);

  /// Retain completed Records in PathTelemetry::records (test hook).
  void keep_records(bool keep) noexcept { keep_records_ = keep; }

  /// Open a telemetry window for the named path; requests still open from
  /// the previous window are audited as in_flight_at_end (healthy partial
  /// lifecycle) or abandoned (broken one).
  void begin_path(std::string name);

  /// Close the current window and finish the trace file (emits the JSON
  /// footer). Idempotent; the destructor calls it as a safety net.
  void finish();

  // EventSink
  void on_stage(Stage stage, ThreadId tid, Tag tag, Cycle cycle) override;
  void on_merge(ThreadId tid, Tag tag, ThreadId leader_tid, Tag leader_tag,
                Cycle cycle) override;
  void on_hop(Hop hop, ThreadId tid, Tag tag, NodeId src, NodeId dest,
              Cycle cycle) override;

  /// Emit one Chrome counter-track sample (`"ph":"C"`): counter `name`,
  /// series `series`, value at simulated time `ts`. No-op unless a trace
  /// file is open. LatencyDecomposer renders per-stage residency with it.
  void emit_counter(std::string_view name, std::string_view series, Cycle ts,
                    std::uint64_t value);

  [[nodiscard]] const std::deque<PathTelemetry>& paths() const noexcept {
    return paths_;
  }
  /// Telemetry window for `name` (latest if repeated); null when absent.
  [[nodiscard]] const PathTelemetry* path(std::string_view name) const;

  // ---- Audit counters (all zero on a healthy run) ------------------------
  /// Stamps that ran backwards in cycle or stage order within a request.
  [[nodiscard]] std::uint64_t monotonicity_errors() const noexcept {
    return monotonicity_errors_;
  }
  /// Completed requests missing an entry stamp, queue_insert or
  /// response_match.
  [[nodiscard]] std::uint64_t completeness_errors() const noexcept {
    return completeness_errors_;
  }
  /// Requests whose window closed with a *broken* partial lifecycle (no
  /// entry stamp, or stamps out of order) — real errors, unlike
  /// in_flight_at_end().
  [[nodiscard]] std::uint64_t abandoned_records() const noexcept {
    return abandoned_records_;
  }
  /// Requests that were still legitimately in flight (healthy monotone
  /// prefix starting at an entry stage) when their window closed — normal
  /// for truncated/drain-cutoff runs, so not an audit failure.
  [[nodiscard]] std::uint64_t in_flight_at_end() const noexcept {
    return in_flight_at_end_;
  }
  /// Fabric hop events observed (4 per completed remote round trip).
  [[nodiscard]] std::uint64_t hop_events() const noexcept {
    return hop_events_;
  }

  [[nodiscard]] std::uint64_t completed_records() const noexcept {
    return completed_total_;
  }
  [[nodiscard]] std::size_t open_records() const noexcept {
    return open_.size();
  }
  [[nodiscard]] std::uint64_t trace_events_written() const noexcept {
    return events_written_;
  }

 private:
  struct LaneAlloc {
    std::vector<std::uint32_t> free;
    std::uint32_t next = 0;
  };

  void ensure_path();
  void close_window();
  void finalize_record(Record&& record);
  void audit(const Record& record);
  void emit_record(const Record& record);
  void emit_event(const std::string& json);
  void assign_lane(Record& record);
  void release_lane(const Record& record);
  [[nodiscard]] std::uint64_t node_track(unsigned node);
  [[nodiscard]] std::uint64_t chrome_tid(const Record& record) const;

  std::deque<PathTelemetry> paths_;
  PathTelemetry* current_ = nullptr;
  std::unordered_map<RequestGid, Record> open_;
  std::unordered_map<ThreadId, LaneAlloc> lanes_;
  /// Flow ids for in-flight fabric legs, keyed by (gid << 1) | leg so a
  /// send and its matching recv share one arrow even across tag reuse.
  struct PendingHop {
    std::uint64_t id;
    NodeId src;
    NodeId dest;
  };
  std::unordered_map<std::uint64_t, std::vector<PendingHop>> pending_hops_;
  std::vector<bool> node_tracks_named_;

  std::ofstream trace_out_;
  bool trace_open_ = false;
  bool finished_ = false;
  bool keep_records_ = false;
  std::uint64_t events_written_ = 0;
  std::uint64_t flow_ids_ = 0;

  std::uint64_t monotonicity_errors_ = 0;
  std::uint64_t completeness_errors_ = 0;
  std::uint64_t abandoned_records_ = 0;
  std::uint64_t in_flight_at_end_ = 0;
  std::uint64_t hop_events_ = 0;
  std::uint64_t completed_total_ = 0;
};

}  // namespace mac3d
