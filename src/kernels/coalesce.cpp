#include "kernels/coalesce.hpp"

#include "common/check.hpp"

namespace kern {

void CoalescingDispatcher::begin_scope(const std::string& scope,
                                       std::size_t num_tasks) {
  inner_->begin_scope(scope, num_tasks);
  GLP_CHECK(!stager_.armed && stager_.groups.empty());
  scope_ = scope;
  // Ask *after* the inner begin_scope: the scheduler only knows whether
  // this run profiles or runs steady once the scope is open.
  stager_.armed = inner_->scope_coalescable();
}

void CoalescingDispatcher::end_scope() {
  stager_.armed = false;
  // Flush before the inner end_scope so the scope's join barrier (events
  // recorded on every pool stream) covers the merged launches.
  stager_.flush(*ctx_, scope_ + "/coalesced");
  inner_->end_scope();
}

}  // namespace kern
