// Simple in-order core (paper Sec. 3): issues memory references from its
// hardware-thread streams and stalls each thread until the reference
// completes. Several threads may share a core (the paper's "temporal
// multithreading" extension); the core round-robins among ready threads,
// so some threads progress while others wait on memory.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/request_router.hpp"
#include "arch/spm.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"

namespace mac3d {

class CoreModel {
 public:
  CoreModel(const SimConfig& config, NodeId node, CoreId core)
      : spm_(config, node, core), node_(node), core_(core) {}

  /// Attach a hardware thread replaying `records` (owned by the caller,
  /// must outlive the core).
  void add_thread(ThreadId tid, const std::vector<MemRecord>* records) {
    threads_.push_back(Thread{tid, records, 0, false, 0, 0});
  }

  /// Issue at most one memory reference this cycle. SPM accesses complete
  /// locally after the SPM latency; main-memory references go to the
  /// router (false return from the router stalls the thread in place).
  void try_issue(Cycle now, RequestRouter& router);

  /// A completion for thread `tid` arrived.
  void on_complete(ThreadId tid, Cycle now);

  [[nodiscard]] bool finished() const noexcept {
    for (const Thread& thread : threads_) {
      if (thread.outstanding || thread.cursor < thread.records->size()) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }

  /// Activity oracle (docs/PARALLELISM.md §event-driven engine): earliest
  /// cycle > `now` at which this core could issue a reference — the
  /// nearest SPM ready time of a time-blocked thread, or now + 1 when a
  /// thread is ready outright. 0 = no thread can issue until a completion
  /// arrives (covered by the MAC/device oracle: the completion's delivery
  /// cycle is an activity cycle, after which this oracle is re-asked).
  [[nodiscard]] Cycle next_issue_cycle(Cycle now) const noexcept {
    Cycle next = 0;
    for (const Thread& thread : threads_) {
      if (thread.outstanding || thread.cursor >= thread.records->size()) {
        continue;
      }
      const Cycle at = thread.spm_ready_at > now ? thread.spm_ready_at
                                                 : now + 1;
      if (next == 0 || at < next) next = at;
    }
    return next;
  }

  [[nodiscard]] std::uint64_t spm_accesses() const noexcept {
    return spm_.accesses();
  }
  [[nodiscard]] const Spm& spm() const noexcept { return spm_; }
  [[nodiscard]] CoreId id() const noexcept { return core_; }

 private:
  struct Thread {
    ThreadId tid = 0;
    const std::vector<MemRecord>* records = nullptr;
    std::size_t cursor = 0;
    bool outstanding = false;
    Tag next_tag = 0;
    Cycle spm_ready_at = 0;  ///< SPM access in flight until this cycle
  };

  Spm spm_;
  NodeId node_;
  CoreId core_;
  std::vector<Thread> threads_;
  std::size_t turn_ = 0;
  std::uint64_t issued_ = 0;
};

inline void CoreModel::try_issue(Cycle now, RequestRouter& router) {
  if (threads_.empty()) return;
  for (std::size_t scan = 0; scan < threads_.size(); ++scan) {
    Thread& thread = threads_[turn_];
    turn_ = (turn_ + 1) % threads_.size();
    if (thread.outstanding || thread.spm_ready_at > now ||
        thread.cursor >= thread.records->size()) {
      continue;
    }
    const MemRecord& record = (*thread.records)[thread.cursor];
    if (record.op != MemOp::kFence && spm_.contains(record.addr)) {
      thread.spm_ready_at = spm_.access(now, record.op == MemOp::kStore);
      ++thread.cursor;
      return;
    }
    RawRequest request;
    request.addr = record.addr;
    request.op = record.op;
    request.size = record.size;
    request.tid = thread.tid;
    request.tag = thread.next_tag;
    request.core = core_;
    request.node = node_;
    if (!router.route_local(request, now)) return;  // back-pressure: retry
    ++thread.next_tag;
    ++thread.cursor;
    thread.outstanding = true;
    ++issued_;
    return;
  }
}

inline void CoreModel::on_complete(ThreadId tid, Cycle now) {
  (void)now;
  for (Thread& thread : threads_) {
    if (thread.tid == tid) {
      thread.outstanding = false;
      return;
    }
  }
}

}  // namespace mac3d
