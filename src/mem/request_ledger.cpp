#include "mem/request_ledger.hpp"

namespace mac3d {

void RequestLedger::attach_checks(CheckContext* context,
                                  const std::string& scope) {
  checks_ = context;
  if (context == nullptr) {
    conservation_.reset();
    return;
  }
  conservation_ = std::make_unique<ConservationChecker>(*context, scope);
  context->on_finalize([this](CheckContext&) {
    if (conservation_ != nullptr) conservation_->finalize(last_tick_);
  });
}

void RequestLedger::audit_drain(Cycle now) {
  if (sink_ != nullptr) {
    for (const CompletedAccess& done : done_) {
      sink_->on_stage(Stage::kResponseMatch, done.target.tid, done.target.tag,
                      done.completed);
    }
  }
  if (conservation_ != nullptr) {
    for (const CompletedAccess& done : done_) {
      conservation_->on_complete(done.target.tid, done.target.tag, done.fence,
                                 now);
    }
  }
}

}  // namespace mac3d
