#include "gpusim/host_executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>

#include "common/parallel.hpp"

namespace gpusim {

HostExecutor::NodeId HostExecutor::defer(InlineFn work, const Frontier& after) {
  const NodeId id = next_id();
  if (!segment_open_) {
    segments_.push_back(Segment{tasks_.size(), 0});
    level_count_.clear();
    segment_base_ = id;
    segment_open_ = true;
  }
  const auto pred_begin = static_cast<std::uint32_t>(preds_.size());
  std::uint32_t level = 0;
  for (const NodeId a : after) {
    if (!live(a)) continue;
    preds_.push_back(a);
    level = std::max(level, tasks_[a - base_id_].level + 1);
  }
  if (level >= level_count_.size()) level_count_.resize(level + 1, 0);
  Segment& seg = segments_.back();
  seg.width = std::max(seg.width, ++level_count_[level]);
  tasks_.push_back(Task{std::move(work), pred_begin,
                        static_cast<std::uint32_t>(preds_.size()), level});
  return id;
}

void HostExecutor::defer_barrier(InlineFn work) {
  cut();
  const auto p = static_cast<std::uint32_t>(preds_.size());
  segments_.push_back(Segment{tasks_.size(), 1});
  tasks_.push_back(Task{std::move(work), p, p, 0});
  cut();
}

void HostExecutor::merge(Frontier& into, const Frontier& from) const {
  std::erase_if(into, [this](NodeId id) { return !live(id); });
  for (const NodeId id : from) {
    if (live(id) && std::find(into.begin(), into.end(), id) == into.end()) {
      into.push_back(id);
    }
  }
}

void HostExecutor::drain(std::uint64_t& ran_on_workers,
                         std::uint64_t& ran_inline) {
  if (tasks_.empty()) return;
  // Whatever happens below, every deferred node is consumed: a throwing
  // functor drops the rest, exactly as an exception out of the event
  // loop abandons the ops behind it.
  struct Consume {
    HostExecutor& ex;
    ~Consume() {
      ex.base_id_ += ex.tasks_.size();
      ex.tasks_.clear();
      ex.preds_.clear();
      ex.segments_.clear();
      ex.segment_base_ = ex.base_id_;
      ex.segment_open_ = false;
    }
  } consume{*this};
  const auto workers = static_cast<std::size_t>(glp::parallel_workers());
  for (std::size_t k = 0; k < segments_.size(); ++k) {
    const Segment& seg = segments_[k];
    const std::size_t end =
        k + 1 < segments_.size() ? segments_[k + 1].begin : tasks_.size();
    if (workers < 2 || seg.width < workers) {
      // Cut vertices, chains and segments too narrow to occupy every
      // worker run on the calling thread, where their math can still use
      // the pool itself.
      for (std::size_t i = seg.begin; i < end; ++i) tasks_[i].work();
      ran_inline += end - seg.begin;
    } else {
      run_parallel(seg.begin, end, workers);
      ran_on_workers += end - seg.begin;
    }
  }
}

void HostExecutor::run_parallel(std::size_t begin, std::size_t end,
                                std::size_t workers) {
  const std::size_t n = end - begin;
  const NodeId base = base_id_ + begin;
  // Successor lists (CSR) and in-degrees over the segment's edges; every
  // recorded predecessor lies inside the segment.
  indegree_.assign(n, 0);
  succ_begin_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = tasks_[begin + i];
    indegree_[i] = t.pred_end - t.pred_begin;
    for (std::uint32_t p = t.pred_begin; p < t.pred_end; ++p) {
      ++succ_begin_[preds_[p] - base + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) succ_begin_[i + 1] += succ_begin_[i];
  succ_.resize(succ_begin_[n]);
  fill_.assign(succ_begin_.begin(), succ_begin_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = tasks_[begin + i];
    for (std::uint32_t p = t.pred_begin; p < t.pred_end; ++p) {
      succ_[fill_[preds_[p] - base]++] = static_cast<std::uint32_t>(i);
    }
  }

  // Ready nodes in a min-heap on completion order, so workers follow the
  // simulated order as closely as the edges allow.
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint32_t>& ready = ready_;
  ready.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree_[i] == 0) ready.push_back(static_cast<std::uint32_t>(i));
  }
  std::size_t remaining = n;
  std::exception_ptr error;
  const auto later = std::greater<std::uint32_t>();

  const auto worker = [&] {
    std::unique_lock lock(mutex);
    for (;;) {
      cv.wait(lock, [&] { return !ready.empty() || remaining == 0 || error; });
      if (remaining == 0 || error) return;
      std::pop_heap(ready.begin(), ready.end(), later);
      const std::uint32_t i = ready.back();
      ready.pop_back();
      lock.unlock();
      try {
        tasks_[begin + i].work();
      } catch (...) {
        lock.lock();
        if (!error) error = std::current_exception();
        cv.notify_all();
        return;
      }
      lock.lock();
      --remaining;
      std::size_t woken = 0;
      for (std::uint32_t s = succ_begin_[i]; s < succ_begin_[i + 1]; ++s) {
        if (--indegree_[succ_[s]] == 0) {
          ready.push_back(succ_[s]);
          std::push_heap(ready.begin(), ready.end(), later);
          ++woken;
        }
      }
      // This worker takes one of the newly ready nodes itself.
      if (remaining == 0) {
        cv.notify_all();
      } else {
        for (; woken > 1; --woken) cv.notify_one();
      }
    }
  };
  glp::parallel_for(
      0, workers,
      [&worker](std::size_t lo, std::size_t hi) {
        for (std::size_t w = lo; w < hi; ++w) worker();
      },
      /*grain=*/1);
  if (error) std::rethrow_exception(error);
}

}  // namespace gpusim
