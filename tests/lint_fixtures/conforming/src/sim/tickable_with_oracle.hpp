// Conforming counterpart to tickable_no_oracle.hpp: the tickable widget
// declares a wake oracle and registers its census row.
#pragma once

namespace mini {

using Cycle = unsigned long long;

class Widget {
 public:
  void tick(Cycle now) { work_until_ = now + 1; }
  Cycle next_event(Cycle) const { return 0; }
  template <typename Census>
  void register_census(Census& census) const {
    census.add_threshold("widget", &work_until_);
  }

 private:
  Cycle work_until_ = 0;
};

}  // namespace mini
