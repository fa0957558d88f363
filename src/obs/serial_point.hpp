// The serial point every cycle loop shares (docs/PARALLELISM.md): once a
// visited cycle's work is done, the loop observes the idle-cycle census,
// advances the cycle sampler and the snapshot streamer, and polls the
// stall watchdog.
// On the event clock it then jumps to the next wake, landing on every
// sampler and snapshot boundary. The census needs no landing: its slots
// count skipped cycles themselves. The streaming driver
// (src/sim/driver.cpp) and the multi-node System (src/arch/system.cpp)
// both run through it, so both engines evaluate every probe at the same
// simulated cycles with the same state.
#pragma once

#include <algorithm>
#include <string>

#include "common/types.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/snapshot.hpp"

namespace mac3d {

/// One run's telemetry, advanced at its loop's serial point; any pointer
/// may be null. Construction begins the sampler and snapshot runs under
/// `label` and finish() flushes them at the run's end cycle. A run left
/// unfinished — an exception unwinding out of its loop — aborts both
/// instead. Either exit seals the census, so no probe or slot pointer
/// into the dying pipeline survives the run.
class SerialPoint {
 public:
  /// A wake that never comes: nothing pending.
  static constexpr Cycle kNever = ~Cycle{0};

  SerialPoint(ActivityCensus* census, CycleSampler* sampler,
              SnapshotStreamer* snapshot, HostProfiler* profiler,
              const std::string& label)
      : census_(census),
        sampler_(sampler),
        snapshot_(snapshot),
        profiler_(profiler) {
    if (sampler_ != nullptr) sampler_->begin_run(label);
    if (snapshot_ != nullptr) snapshot_->begin_run(label);
  }
  SerialPoint(const SerialPoint&) = delete;
  SerialPoint& operator=(const SerialPoint&) = delete;
  ~SerialPoint() {
    if (!finished_) {
      if (sampler_ != nullptr) sampler_->abort_run();
      if (snapshot_ != nullptr) snapshot_->abort_run();
    }
    if (census_ != nullptr) census_->seal();
  }

  /// Normal exit: flush the tail windows through `end`.
  void finish(Cycle end) {
    finished_ = true;
    if (sampler_ != nullptr) sampler_->end_run(end);
    if (snapshot_ != nullptr) snapshot_->end_run(end);
  }

  void start_laps() const noexcept { mac3d::start_laps(profiler_); }

  /// The cycle's work is done. True when the stall watchdog fired: the
  /// run is abandoned here, the only exit a livelocked pipeline has.
  bool observe(Cycle now) const {
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

  /// Event clock: the cycle to visit after `now`, given the loop's
  /// earliest `wake` (kNever, or a cycle not after `now`, steps one
  /// cycle) and capped at `limit`. Sampler and snapshot boundaries are
  /// mandatory landing cycles, so every engine samples every window at
  /// identical state; a cycle visited only to land is a no-op tick.
  Cycle advance(Cycle now, Cycle wake, Cycle limit = kNever) const {
    Cycle next = wake == kNever || wake <= now ? now + 1 : wake;
    if (sampler_ != nullptr) {
      next = std::min(next, sampler_->next_boundary(now));
    }
    if (snapshot_ != nullptr) {
      next = std::min(next, snapshot_->next_boundary(now));
    }
    return std::min(next, limit);
  }

 private:
  void lap(HostPhase phase) const noexcept { mac3d::lap(profiler_, phase); }

  ActivityCensus* census_;
  CycleSampler* sampler_;
  SnapshotStreamer* snapshot_;
  HostProfiler* profiler_;
  bool finished_ = false;
};

}  // namespace mac3d
