#include "kernels/dispatch.hpp"

#include "common/check.hpp"

namespace kern {

FixedStreamDispatcher::FixedStreamDispatcher(scuda::Context& ctx, int num_streams)
    : ctx_(&ctx) {
  GLP_REQUIRE(num_streams >= 1, "stream pool must have at least one stream");
  streams_.reserve(static_cast<std::size_t>(num_streams));
  for (int i = 0; i < num_streams; ++i) {
    streams_.push_back(scuda::Stream::create(ctx));
  }
}

void FixedStreamDispatcher::begin_scope(const std::string&, std::size_t) {
  GLP_REQUIRE(!in_scope_, "dispatch scopes must not nest");
  in_scope_ = true;
}

Lane FixedStreamDispatcher::task_lane(std::size_t index) {
  GLP_REQUIRE(in_scope_, "task_lane outside a scope");
  const int lane = static_cast<int>(index % streams_.size());
  return Lane{streams_[static_cast<std::size_t>(lane)].id(), lane};
}

void FixedStreamDispatcher::end_scope() {
  GLP_REQUIRE(in_scope_, "end_scope without begin_scope");
  in_scope_ = false;
  // Recording an event on the legacy default stream acts as an async
  // barrier: the record completes only after all prior work on every
  // stream, and all later work waits for it.
  ctx_->device().record_event(gpusim::kDefaultStream);
}

}  // namespace kern
