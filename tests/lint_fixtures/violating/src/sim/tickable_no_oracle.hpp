// det.activity_oracle: a tickable component that declares neither the
// wake oracle the event-driven engine calls (next_event) nor the
// register_census the idle census calls.
#pragma once

namespace mini {

using Cycle = unsigned long long;

class Widget {
 public:
  void tick(Cycle now) { last_ = now; }
  bool idle() const { return true; }

 private:
  Cycle last_ = 0;
};

}  // namespace mini
