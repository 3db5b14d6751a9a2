#pragma once
// Dynamic batcher: carves single-tenant batches out of a request queue.
//
// Two batching modes:
//
//  * kWindowed (the classic fixed-window policy) — a tenant whose
//    execution slot is free cuts a batch when
//      - it has max_batch queued requests (full batch), or
//      - its oldest queued request has waited max_delay_us (timeout).
//
//  * kContinuous — a batch launches the moment capacity frees: a tenant
//    whose slot is free cuts min(queued, max_batch) immediately, with no
//    artificial delay window. The in-flight time of the tenant's previous
//    batch is the natural accumulation window — late arrivals join the
//    next cut the instant the slot frees ("join the in-flight slack")
//    instead of waiting out a timer. This removes the windowed policy's
//    queueing cliff: under light load requests never idle in the queue,
//    and under heavy load batches are as large as the backlog allows.
//
// Unbatched serving is {kContinuous, max_batch = 1}: every request is
// its own batch, cut the moment its tenant's slot is free.
//
// Requests are taken strictly in arrival order per tenant, and tenants
// are considered in the arrival order of their oldest queued request, so
// batching never reorders a tenant's stream of requests.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "serving/request_queue.hpp"

namespace serving {

enum class BatchMode {
  kWindowed,    ///< fixed max_batch / max_delay_us window
  kContinuous,  ///< cut as soon as the slot frees; no delay window
};

inline const char* batch_mode_name(BatchMode m) {
  switch (m) {
    case BatchMode::kWindowed: return "windowed";
    case BatchMode::kContinuous: return "continuous";
  }
  return "?";
}

struct BatchPolicy {
  BatchMode mode = BatchMode::kWindowed;
  int max_batch = 8;
  double max_delay_us = 2000.0;  ///< max wait for a batch to fill (windowed)

  double max_delay_ns() const { return max_delay_us * gpusim::kUs; }
};

struct Batch {
  std::uint64_t id = 0;
  int tenant = 0;
  std::vector<InferenceRequest> requests;

  int size() const { return static_cast<int>(requests.size()); }
};

class DynamicBatcher {
 public:
  /// `first_id`/`id_stride` let sharded servers run one batcher per
  /// tenant with globally unique batch ids (shard s uses ids
  /// s, s+stride, s+2*stride, ...). The defaults keep the single-batcher
  /// behaviour (0, 1, 2, ...).
  explicit DynamicBatcher(BatchPolicy policy, std::uint64_t first_id = 0,
                          std::uint64_t id_stride = 1);

  const BatchPolicy& policy() const { return policy_; }

  /// Cut the next ready batch at sim time `now`, or nullopt when nothing
  /// is ready. `slot_free(tenant)` reports whether the tenant's execution
  /// slot can take a batch right now; tenants with busy slots are skipped
  /// (their requests keep queueing). Call repeatedly until nullopt.
  std::optional<Batch> try_form(RequestQueue& queue, gpusim::SimTime now,
                                const std::function<bool(int)>& slot_free);

  /// Earliest future time at which the delay timeout could cut a batch
  /// (+infinity when the queue is empty). Ignores slot availability — the
  /// caller re-evaluates when slots free up. In continuous mode there is
  /// no timer: every queued request is ready now, so this returns the
  /// oldest arrival (always in the past once queued).
  gpusim::SimTime next_cut_ns(RequestQueue& queue) const;

  std::uint64_t batches_formed() const { return formed_; }

 private:
  BatchPolicy policy_;
  std::uint64_t next_id_ = 0;
  std::uint64_t id_stride_ = 1;
  std::uint64_t formed_ = 0;
};

}  // namespace serving
