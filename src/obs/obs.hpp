// Observability core: the request-lifecycle stage taxonomy and the
// EventSink interface components stamp into.
//
// Contract (mirrors src/check/): every instrumented component holds an
// `EventSink* sink_` that is null unless a sink is attached for the run.
// Stamp sites go through MAC3D_OBS_STAMP / MAC3D_OBS_MERGE / MAC3D_OBS_HOP,
// which reduce to a single null-pointer test when no sink is attached. See
// docs/OBSERVABILITY.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace mac3d {

/// Pipeline boundaries a raw request crosses between the core issuing it
/// and the core seeing its completion. Enum order is pipeline order: along
/// any concrete path the stages a request visits are strictly increasing
/// (stages may share a cycle, e.g. insert + merge).
enum class Stage : std::uint8_t {
  kCoreIssue = 0,   ///< core presents the request to its memory path
  kRouterEnqueue,   ///< node fabric accepted it (local or remote queue)
  kQueueInsert,     ///< ARQ / raw FIFO / MSHR file accepted it
  kMerge,           ///< coalesced into an existing ARQ/MSHR entry
  kBuilderPick,     ///< ARQ popped the entry into the request builder
  kFlitAlloc,       ///< FLIT-table lookup sized the packet (issue queue)
  kLinkSerialize,   ///< packet started serializing onto an HMC link
  kBankAccess,      ///< DRAM bank access started (ACT+CAS, Sec. 2.2.1)
  kResponseMatch,   ///< response de-coalesced / matched back to the request
  kCoreComplete,    ///< driver/core observed the completion
};

inline constexpr std::size_t kStageCount = 10;

/// Stable global request identity: (tid, tag) is unique system-wide while
/// the request is in flight (thread ids are global — threads never
/// migrate between nodes — and a thread's tag is not reused until its
/// completion returns). The packed form is the key every observability
/// consumer (lifecycle records, cross-node flow ids) indexes by, so a
/// request keeps one identity from core_issue on its origin node through
/// the fabric, the remote MAC, and back.
using RequestGid = std::uint32_t;

[[nodiscard]] constexpr RequestGid request_gid(ThreadId tid,
                                               Tag tag) noexcept {
  // The 16+16 pack is collision-free only while both components are
  // 16-bit; widening either type must widen RequestGid with it.
  static_assert(sizeof(ThreadId) * 8 <= 16 && sizeof(Tag) * 8 <= 16,
                "request_gid packs (tid, tag) into 16-bit lanes");
  return (static_cast<RequestGid>(tid) << 16) | tag;
}

/// Legs of a cross-node fabric traversal (multi-node System runs). A
/// remote request hops origin -> home (request leg) and its completion
/// hops home -> origin (response leg); each leg is observed at both ends
/// so tracers can draw send -> receive flow arrows across node tracks.
enum class Hop : std::uint8_t {
  kRequestSend = 0,  ///< origin node handed the request to the fabric
  kRequestRecv,      ///< home node received it from the fabric
  kResponseSend,     ///< home node handed the completion to the fabric
  kResponseRecv,     ///< origin node received the completion
};

[[nodiscard]] constexpr std::string_view to_string(Hop hop) noexcept {
  switch (hop) {
    case Hop::kRequestSend: return "request_send";
    case Hop::kRequestRecv: return "request_recv";
    case Hop::kResponseSend: return "response_send";
    case Hop::kResponseRecv: return "response_recv";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(Stage stage) noexcept {
  switch (stage) {
    case Stage::kCoreIssue: return "core_issue";
    case Stage::kRouterEnqueue: return "router_enqueue";
    case Stage::kQueueInsert: return "queue_insert";
    case Stage::kMerge: return "merge";
    case Stage::kBuilderPick: return "builder_pick";
    case Stage::kFlitAlloc: return "flit_alloc";
    case Stage::kLinkSerialize: return "link_serialize";
    case Stage::kBankAccess: return "bank_access";
    case Stage::kResponseMatch: return "response_match";
    case Stage::kCoreComplete: return "core_complete";
  }
  return "?";
}

/// Receiver for lifecycle stamps. Implementations must tolerate stamps in
/// component-call order: within one cycle a path may stamp kQueueInsert
/// before the driver stamps nothing else — but cycles never run backwards
/// per request.
class EventSink {
 public:
  EventSink() = default;
  EventSink(const EventSink&) = delete;
  EventSink& operator=(const EventSink&) = delete;
  virtual ~EventSink() = default;

  /// A request identified by (tid, tag) crossed `stage` at `cycle`.
  virtual void on_stage(Stage stage, ThreadId tid, Tag tag, Cycle cycle) = 0;

  /// Request (tid, tag) merged into the coalesced entry led by
  /// (leader_tid, leader_tag) at `cycle` (rendered as a flow event).
  virtual void on_merge(ThreadId tid, Tag tag, ThreadId leader_tid,
                        Tag leader_tag, Cycle cycle) {
    (void)tid;
    (void)tag;
    (void)leader_tid;
    (void)leader_tag;
    (void)cycle;
  }

  /// Request (tid, tag) crossed the interconnect: leg `hop` of its
  /// round trip, traveling src -> dest, observed at `cycle` (send legs
  /// stamp at fabric handoff, recv legs at delivery). Not a Stage: a
  /// request's hops interleave with its stages without breaking the
  /// strictly-increasing stage audit.
  virtual void on_hop(Hop hop, ThreadId tid, Tag tag, NodeId src,
                      NodeId dest, Cycle cycle) {
    (void)hop;
    (void)tid;
    (void)tag;
    (void)src;
    (void)dest;
    (void)cycle;
  }
};

}  // namespace mac3d

#define MAC3D_OBS_STAMP(sink, stage, tid, tag, cycle)  \
  do {                                                 \
    if ((sink) != nullptr) {                           \
      (sink)->on_stage((stage), (tid), (tag), (cycle)); \
    }                                                  \
  } while (0)
#define MAC3D_OBS_MERGE(sink, tid, tag, leader_tid, leader_tag, cycle)      \
  do {                                                                      \
    if ((sink) != nullptr) {                                                \
      (sink)->on_merge((tid), (tag), (leader_tid), (leader_tag), (cycle));  \
    }                                                                       \
  } while (0)
#define MAC3D_OBS_HOP(sink, hop, tid, tag, src, dest, cycle)            \
  do {                                                                  \
    if ((sink) != nullptr) {                                            \
      (sink)->on_hop((hop), (tid), (tag), (src), (dest), (cycle));      \
    }                                                                   \
  } while (0)
