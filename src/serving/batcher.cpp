#include "serving/batcher.hpp"

#include <limits>

#include "common/check.hpp"

namespace serving {

DynamicBatcher::DynamicBatcher(BatchPolicy policy, std::uint64_t first_id,
                               std::uint64_t id_stride)
    : policy_(policy), next_id_(first_id), id_stride_(id_stride) {
  GLP_REQUIRE(policy_.max_batch >= 1, "max_batch must be positive");
  GLP_REQUIRE(policy_.max_delay_us >= 0.0, "max_delay_us must be non-negative");
  GLP_REQUIRE(id_stride_ >= 1, "batch id stride must be positive");
}

std::optional<Batch> DynamicBatcher::try_form(
    RequestQueue& queue, gpusim::SimTime now,
    const std::function<bool(int)>& slot_free) {
  const std::size_t width = static_cast<std::size_t>(policy_.max_batch);
  const bool continuous = policy_.mode == BatchMode::kContinuous;
  // Tenants in arrival order of their oldest request: the first *ready*
  // tenant is the one whose batch has waited longest.
  for (const int tenant : queue.tenants_by_oldest()) {
    if (slot_free && !slot_free(tenant)) continue;
    if (!continuous) {
      const InferenceRequest* head = queue.oldest(tenant);
      GLP_CHECK(head != nullptr);
      const bool full = queue.count(tenant) >= width;
      const bool timed_out = now >= head->arrival_ns + policy_.max_delay_ns();
      if (!full && !timed_out) continue;
    }
    Batch batch;
    batch.id = next_id_;
    next_id_ += id_stride_;
    ++formed_;
    batch.tenant = tenant;
    batch.requests = queue.pop(tenant, width);
    GLP_CHECK(!batch.requests.empty());
    return batch;
  }
  return std::nullopt;
}

gpusim::SimTime DynamicBatcher::next_cut_ns(RequestQueue& queue) const {
  gpusim::SimTime t = std::numeric_limits<gpusim::SimTime>::infinity();
  const bool continuous = policy_.mode == BatchMode::kContinuous;
  for (const int tenant : queue.tenants_by_oldest()) {
    const InferenceRequest* head = queue.oldest(tenant);
    GLP_CHECK(head != nullptr);
    const gpusim::SimTime cut =
        continuous ? head->arrival_ns
                   : head->arrival_ns + policy_.max_delay_ns();
    if (cut < t) t = cut;
  }
  return t;
}

}  // namespace serving
