#pragma once
// Deferred, host-parallel execution of the engine's work functors.
//
// SimDevice does not run a completed kernel's or copy's functor at its
// simulated completion. It hands the functor to this executor together
// with the happens-before edges the engine enforced for the op — its
// stream predecessor and the event waits in front of it (ops without work
// forward theirs) — and default-stream ops cut the queue. Deferred
// functors run when drain() is called: by every synchronising engine call
// and host_callback before it returns, and by drain_host_work(), which
// callers of the non-synchronising lookahead (advance_device_to,
// peek_next_event) use before they read host memory. drain() runs every
// deferred functor in an order consistent with the edges:
//  * a default-stream functor (a cut vertex) runs alone on the calling
//    thread, so its math keeps the pool's intra-kernel parallelism;
//  * between two cuts, a segment whose width — its largest topological
//    level, a node's level being one more than its deepest in-segment
//    predecessor's — is at least the pool's worker count runs as worker
//    loops inside one glp::parallel_for that pull ready nodes, so
//    independent lanes' functors overlap and their nested parallel_for
//    calls run inline. A training scope forks its lanes off the default
//    stream, so its width is its lane count; a serving batch is a chain
//    of fork-join diamonds with one source, as wide as its widest scope;
//  * a narrower segment (one chain, or fewer parallel lanes than workers,
//    like a two-stream scope) runs inline in completion order and keeps
//    intra-kernel parallelism instead.
// Any two functors with conflicting memory accesses in a race-free stream
// program are ordered by those edges, so every schedule produces the
// bit-identical results of simulated-completion order.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/inline_fn.hpp"

namespace gpusim {

class HostExecutor {
 public:
  using NodeId = std::uint64_t;
  /// Deferred nodes a later op must follow (a stream's or an event's
  /// happens-before frontier). Entries from drained or already-cut
  /// segments are stale and ignored.
  using Frontier = std::vector<NodeId>;

  /// True while a segment is open. Frontier bookkeeping is needed only
  /// then: otherwise every frontier entry is stale (drained or cut off),
  /// as in timing-only runs whose only functors are default-stream copies.
  bool tracking() const { return segment_open_; }

  /// Defer `work` to run after every live node in `after`; returns its id.
  NodeId defer(InlineFn work, const Frontier& after);
  /// Defer a barrier's `work`: it runs alone, after every earlier node and
  /// before every later one.
  void defer_barrier(InlineFn work);
  /// Order every later node after every earlier one (a default-stream op
  /// without work).
  void cut() {
    segment_open_ = false;
    segment_base_ = next_id();
  }
  /// Add the live entries of `from` to `into`, dropping stale ones.
  void merge(Frontier& into, const Frontier& from) const;

  /// Run every deferred functor, adding how many ran on worker loops and
  /// how many on the calling thread to the two counters. If one throws,
  /// nodes not yet started are dropped and the first exception is
  /// rethrown once none is running.
  void drain(std::uint64_t& ran_on_workers, std::uint64_t& ran_inline);

 private:
  struct Task {
    InlineFn work;
    std::uint32_t pred_begin = 0;  ///< range into preds_
    std::uint32_t pred_end = 0;
    std::uint32_t level = 0;       ///< 0 without in-segment predecessors
  };
  struct Segment {
    std::size_t begin = 0;    ///< index of the first task
    std::uint32_t width = 0;  ///< most tasks on one level
  };

  NodeId next_id() const { return base_id_ + tasks_.size(); }
  bool live(NodeId id) const { return id >= segment_base_; }
  void run_parallel(std::size_t begin, std::size_t end, std::size_t workers);

  std::vector<Task> tasks_;      ///< deferred functors, completion order
  std::vector<NodeId> preds_;    ///< in-segment predecessor ids
  std::vector<Segment> segments_;
  NodeId base_id_ = 1;           ///< id of tasks_[0]
  NodeId segment_base_ = 1;      ///< first id of the open segment
  bool segment_open_ = false;

  std::vector<std::uint32_t> level_count_;  ///< open segment's tasks per level

  // run_parallel scratch, reused across drains.
  std::vector<std::uint32_t> indegree_;
  std::vector<std::uint32_t> succ_begin_;
  std::vector<std::uint32_t> succ_;
  std::vector<std::uint32_t> fill_;
  std::vector<std::uint32_t> ready_;
};

}  // namespace gpusim
