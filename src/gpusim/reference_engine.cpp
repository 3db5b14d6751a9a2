#include "gpusim/reference_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace gpusim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kWorkEpsilon = 1e-6;  // thread-cycles considered "done"
}  // namespace

ReferenceEngine::ReferenceEngine(DeviceProps props)
    : DeviceEngine(std::move(props)) {
  queues_[kDefaultStream];  // the default stream always exists
}

StreamId ReferenceEngine::create_stream(int priority, bool non_blocking) {
  const StreamId id = next_stream_++;
  queues_[id];
  stream_priority_[id] = priority;
  if (non_blocking) non_blocking_streams_.insert(id);
  return id;
}

int ReferenceEngine::stream_priority(StreamId stream) const {
  auto it = stream_priority_.find(stream);
  return it == stream_priority_.end() ? 0 : it->second;
}

void ReferenceEngine::destroy_stream(StreamId stream) {
  GLP_REQUIRE(stream != kDefaultStream, "cannot destroy the default stream");
  auto it = queues_.find(stream);
  GLP_REQUIRE(it != queues_.end(), "destroying unknown stream " << stream);
  synchronize_stream(stream);
  queues_.erase(it);
  stream_priority_.erase(stream);
  non_blocking_streams_.erase(stream);
  last_seq_in_stream_.erase(stream);
}

std::uint64_t ReferenceEngine::launch_kernel(StreamId stream, std::string name,
                                             const LaunchConfig& config,
                                             const KernelCost& cost, WorkFn work) {
  validate_launch(config);
  Op op;
  op.kind = OpKind::kKernel;
  op.stream = stream;
  op.name = std::move(name);
  op.config = config;
  op.cost = cost;
  op.work = std::move(work);
  op.correlation = next_correlation_++;
  const std::uint64_t correlation = op.correlation;
  submit(std::move(op), props_.kernel_launch_overhead_us * kUs);
  ++stats_.kernels_launched;
  return correlation;
}

std::uint64_t ReferenceEngine::memcpy_async(StreamId stream, std::size_t bytes,
                                            bool host_to_device, WorkFn work) {
  Op op;
  op.kind = OpKind::kCopy;
  op.stream = stream;
  op.bytes = bytes;
  op.host_to_device = host_to_device;
  op.work = std::move(work);
  op.correlation = next_correlation_++;
  const std::uint64_t correlation = op.correlation;
  // Async copies cost far less host time than kernel launches.
  submit(std::move(op), 1.0 * kUs);
  ++stats_.copies_issued;
  return correlation;
}

std::uint64_t ReferenceEngine::memcpy_peer(StreamId stream, std::size_t bytes,
                                           int peer_device, SimTime start_ns,
                                           SimTime end_ns, WorkFn work) {
  GLP_REQUIRE(peer_device >= 0, "memcpy_peer needs a peer device index");
  GLP_REQUIRE(end_ns >= start_ns, "memcpy_peer span must be non-negative");
  Op op;
  op.kind = OpKind::kCopy;
  op.stream = stream;
  op.bytes = bytes;
  op.peer = peer_device;
  op.peer_start = start_ns;
  op.peer_end = end_ns;
  op.work = std::move(work);
  op.correlation = next_correlation_++;
  const std::uint64_t correlation = op.correlation;
  // Zero host cost: peer copies are issued by the fleet's communication
  // driver (a modelled dedicated thread), not the compute dispatch thread.
  submit(std::move(op), 0.0);
  ++stats_.copies_issued;
  return correlation;
}

EventId ReferenceEngine::record_event(StreamId stream) {
  Op op;
  op.kind = OpKind::kEventRecord;
  op.stream = stream;
  op.event = next_event_++;
  const EventId id = op.event;
  events_pending_.insert(id);
  submit(std::move(op), 0.3 * kUs);
  return id;
}

EventId ReferenceEngine::record_event_at(StreamId stream, SimTime issue_ns) {
  GLP_REQUIRE(issue_ns >= 0.0, "record_event_at needs a non-negative time");
  Op op;
  op.kind = OpKind::kEventRecord;
  op.stream = stream;
  op.event = next_event_++;
  op.issue_at = issue_ns;
  const EventId id = op.event;
  events_pending_.insert(id);
  // Zero host cost: issued by the fleet's communication driver, like
  // memcpy_peer.
  submit(std::move(op), 0.0);
  return id;
}

void ReferenceEngine::wait_event(StreamId stream, EventId event) {
  GLP_REQUIRE(event_times_.count(event) != 0 || events_pending_.count(event) != 0,
              "waiting on unknown event " << event);
  Op op;
  op.kind = OpKind::kWaitEvent;
  op.stream = stream;
  op.event = event;
  submit(std::move(op), 0.3 * kUs);
}

void ReferenceEngine::host_callback(StreamId stream, WorkFn fn) {
  Op op;
  op.kind = OpKind::kHostFn;
  op.stream = stream;
  op.work = std::move(fn);
  submit(std::move(op), 0.3 * kUs);
}

void ReferenceEngine::submit(Op op, SimTime host_cost_ns) {
  auto it = queues_.find(op.stream);
  GLP_REQUIRE(it != queues_.end(), "submission to unknown stream " << op.stream);
  op.seq = next_seq_++;
  op.release = host_time_;
  op.tenant = current_tenant_;
  op.non_blocking = non_blocking_streams_.count(op.stream) != 0;
  host_time_ += host_cost_ns;
  if (op.kind == OpKind::kCopy && op.peer >= 0) {
    // Peer copies release at the link-granted start time: the fleet comm
    // driver stands in for a dedicated communication thread, so the
    // compute dispatch clock must not gate (or be charged for) them.
    op.release = op.peer_start;
  }
  if (op.issue_at >= 0.0) {
    // Same dedicated-thread semantics for comm-driver event records.
    op.release = op.issue_at;
  }
  // In-stream FIFO: each op waits for the completion of its predecessor
  // in the same stream (ops are admitted for execution the moment they
  // reach the queue head, so this dependency is what serialises a
  // stream's kernels on the device).
  op.stream_dep = last_seq_in_stream_[op.stream];
  last_seq_in_stream_[op.stream] = op.seq;
  if (op.stream == kDefaultStream) {
    // Legacy default-stream semantics: acts as a barrier against every
    // other stream, and later work in any stream waits for it.
    op.barrier = true;
    last_default_seq_ = op.seq;
    op.default_dep = 0;
  } else {
    // Non-blocking streams opt out of legacy default-stream ordering in
    // both directions (cudaStreamNonBlocking).
    op.default_dep = op.non_blocking ? 0 : last_default_seq_;
  }
  incomplete_.insert(op.seq);
  if (!op.non_blocking) blocking_incomplete_.insert(op.seq);
  it->second.push_back(std::move(op));
}

bool ReferenceEngine::op_ready(const Op& op) const {
  if (op.release > now_) return false;
  if (op.barrier) {
    // Ready only when every earlier-submitted *blocking* op has completed
    // (non-blocking streams are exempt from the legacy barrier).
    GLP_CHECK(!blocking_incomplete_.empty());
    if (*blocking_incomplete_.begin() != op.seq) return false;
  } else if (op.default_dep != 0 && incomplete_.count(op.default_dep) != 0) {
    return false;
  }
  if (op.stream_dep != 0 && incomplete_.count(op.stream_dep) != 0) return false;
  if (op.kind == OpKind::kWaitEvent) {
    return event_times_.count(op.event) != 0;
  }
  if (op.kind == OpKind::kKernel) {
    return static_cast<int>(resident_.size()) < props_.max_concurrent_kernels;
  }
  return true;
}

void ReferenceEngine::complete_op_bookkeeping(std::uint64_t seq,
                                              bool non_blocking) {
  const auto erased = incomplete_.erase(seq);
  GLP_CHECK(erased == 1);
  if (!non_blocking) {
    const auto berased = blocking_incomplete_.erase(seq);
    GLP_CHECK(berased == 1);
  }
}

bool ReferenceEngine::start_ready_ops() {
  bool progress = false;
  bool kernel_admitted = false;
  // Visit streams by (priority desc, id): when the concurrency degree is
  // saturated, high-priority streams claim the free slots first.
  std::vector<std::pair<StreamId, std::deque<Op>*>> order;
  order.reserve(queues_.size());
  for (auto& [stream, queue] : queues_) order.emplace_back(stream, &queue);
  std::stable_sort(order.begin(), order.end(),
                   [this](const auto& a, const auto& b) {
                     return stream_priority(a.first) > stream_priority(b.first);
                   });
  for (auto& [stream, queue_ptr] : order) {
    std::deque<Op>& queue = *queue_ptr;
    while (!queue.empty()) {
      Op& head = queue.front();
      if (!op_ready(head)) break;
      switch (head.kind) {
        case OpKind::kKernel: {
          ActiveKernel active;
          active.op = std::move(head);
          active.admit_ns = now_;
          active.latency_left = props_.kernel_start_latency_us * kUs;
          active.work_left = work_thread_cycles(active.op.config, active.op.cost);
          active.work_per_block =
              active.work_left / static_cast<double>(active.op.config.total_blocks());
          resident_.push_back(std::move(active));
          kernel_admitted = true;
          queue.pop_front();
          break;
        }
        case OpKind::kCopy: {
          ActiveCopy copy;
          copy.op = std::move(head);
          if (copy.op.peer >= 0) {
            // Cross-device transfer: the span was fixed by the link model.
            // The end is clamped to `now` so an op that becomes runnable
            // after its link span (stream backlog) completes immediately
            // instead of handing advance_to a past-time event.
            copy.start_ns = copy.op.peer_start;
            copy.end_ns = std::max(copy.op.peer_end, now_);
          } else {
            const int dir = copy.op.host_to_device ? 0 : 1;
            copy.start_ns = std::max(now_, copy_engine_free_[dir]);
            copy.end_ns = copy.start_ns + static_cast<double>(copy.op.bytes) /
                                              props_.pcie_bandwidth_gbs;
            copy_engine_free_[dir] = copy.end_ns;
          }
          copies_.push_back(std::move(copy));
          queue.pop_front();
          break;
        }
        case OpKind::kEventRecord: {
          event_times_[head.event] = now_;
          events_pending_.erase(head.event);
          complete_op_bookkeeping(head.seq, head.non_blocking);
          queue.pop_front();
          break;
        }
        case OpKind::kWaitEvent: {
          complete_op_bookkeeping(head.seq, head.non_blocking);
          queue.pop_front();
          break;
        }
        case OpKind::kHostFn: {
          if (head.work) head.work();
          complete_op_bookkeeping(head.seq, head.non_blocking);
          queue.pop_front();
          break;
        }
      }
      progress = true;
    }
  }
  if (kernel_admitted) recompute_rates();
  return progress;
}

void ReferenceEngine::recompute_rates() {
  if (resident_.empty()) return;

  std::vector<ResidencyRequest> reqs;
  reqs.reserve(resident_.size());
  for (const ActiveKernel& k : resident_) {
    ResidencyRequest r;
    r.config = k.op.config;
    const double blocks_left =
        k.work_per_block > 0.0 ? k.work_left / k.work_per_block : 1.0;
    r.blocks_wanted = static_cast<std::uint64_t>(std::max(1.0, std::ceil(blocks_left)));
    reqs.push_back(r);
  }
  const std::vector<ResidencySlot> slots = pack_residency(props_, reqs);

  double slowdown = 1.0;
  if (register_penalty_) {
    slowdown = register_slowdown(register_pressure(props_, reqs, slots));
  }

  // Lane allocation: each resident block can use at most min(block
  // threads rounded up to warps, cores per SM) lanes; when the aggregate
  // demand exceeds the device's lanes, everyone scales proportionally.
  double total_demand = 0.0;
  std::vector<double> demand(resident_.size(), 0.0);
  for (std::size_t i = 0; i < resident_.size(); ++i) {
    const auto threads = resident_[i].op.config.threads_per_block();
    const double warp_threads =
        static_cast<double>((threads + props_.warp_size - 1) / props_.warp_size) *
        props_.warp_size;
    const double per_block = std::min(warp_threads, static_cast<double>(props_.cores_per_sm));
    demand[i] = static_cast<double>(slots[i].resident_blocks) * per_block;
    total_demand += demand[i];
  }
  const double capacity = static_cast<double>(props_.total_lanes());
  const double scale = (total_demand > capacity) ? capacity / total_demand : 1.0;

  for (std::size_t i = 0; i < resident_.size(); ++i) {
    resident_[i].lanes = demand[i] * scale;
    resident_[i].rate = resident_[i].lanes * props_.clock_ghz * slowdown;
  }
}

SimTime ReferenceEngine::next_event_time() const {
  SimTime t = kInf;
  for (const ActiveKernel& k : resident_) {
    if (k.rate > 0.0) {
      t = std::min(t, now_ + k.latency_left + k.work_left / k.rate);
    } else if (k.latency_left > 0.0) {
      t = std::min(t, now_ + k.latency_left);
    }
  }
  for (const ActiveCopy& c : copies_) t = std::min(t, c.end_ns);
  for (const auto& [stream, queue] : queues_) {
    if (!queue.empty() && queue.front().release > now_) {
      t = std::min(t, queue.front().release);
    }
  }
  return t;
}

void ReferenceEngine::advance_to(SimTime t) {
  GLP_CHECK(t >= now_);
  const SimTime dt = t - now_;
  if (dt > 0.0) {
    double busy_lanes = 0.0;
    for (ActiveKernel& k : resident_) {
      SimTime run_dt = dt;
      if (k.latency_left > 0.0) {
        const SimTime consumed = std::min(k.latency_left, run_dt);
        k.latency_left -= consumed;
        run_dt -= consumed;
      }
      if (run_dt > 0.0 && k.rate > 0.0) {
        k.work_left = std::max(0.0, k.work_left - k.rate * run_dt);
        busy_lanes += k.lanes;  // approximation: latency phase excluded
      }
    }
    stats_.busy_lane_ns += busy_lanes * dt;
    if (!resident_.empty()) stats_.active_ns += dt;
    stats_.sim_span_ns += dt;
    now_ = t;
  }

  // Clamp latency residues too small to be represented as a time advance
  // (below ~1 ulp of the clock): their "latency end" event would round to
  // `now` and the loop could never consume them.
  for (ActiveKernel& k : resident_) {
    if (k.latency_left > 0.0 && k.latency_left <= now_ * 1e-12 + 1e-9) {
      k.latency_left = 0.0;
    }
  }

  // Complete finished kernels in deterministic (admission seq) order.
  // The completion threshold scales with the clock: residual work smaller
  // than what the kernel processes in one representable time step (~ulp
  // of `now`) can never be burnt down by a further advance, so it counts
  // as done. Without this the loop would spin on a femtosecond residue.
  bool any_finished = true;
  while (any_finished) {
    any_finished = false;
    for (std::size_t i = 0; i < resident_.size(); ++i) {
      const ActiveKernel& k = resident_[i];
      const double epsilon = kWorkEpsilon + k.rate * (now_ * 1e-9 + 1e-6);
      if (k.latency_left <= 0.0 && k.work_left <= epsilon) {
        finish_kernel(i);
        any_finished = true;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < copies_.size();) {
    if (copies_[i].end_ns <= now_ + 1e-9) {
      ActiveCopy done = std::move(copies_[i]);
      copies_.erase(copies_.begin() + static_cast<std::ptrdiff_t>(i));
      if (done.op.work) {
        done.op.work();
        ++stats_.functors_inline;
      }
      CopyRecord rec;
      rec.correlation_id = done.op.correlation;
      rec.stream = done.op.stream;
      rec.bytes = done.op.bytes;
      rec.host_to_device = done.op.host_to_device;
      rec.start_ns = done.start_ns;
      rec.end_ns = done.end_ns;
      rec.tenant = done.op.tenant;
      rec.peer = done.op.peer;
      timeline_.add_copy(rec);
      if (copy_cb_) copy_cb_(rec);
      complete_op_bookkeeping(done.op.seq, done.op.non_blocking);
    } else {
      ++i;
    }
  }
}

void ReferenceEngine::finish_kernel(std::size_t idx) {
  ActiveKernel done = std::move(resident_[idx]);
  resident_.erase(resident_.begin() + static_cast<std::ptrdiff_t>(idx));

  if (done.op.work) {
    done.op.work();
    ++stats_.functors_inline;
  }

  KernelRecord rec;
  rec.correlation_id = done.op.correlation;
  rec.name = done.op.name;
  rec.stream = done.op.stream;
  rec.config = done.op.config;
  rec.submit_ns = done.op.release;
  rec.start_ns = done.admit_ns;
  rec.end_ns = now_;
  rec.tenant = done.op.tenant;
  timeline_.add_kernel(rec);
  if (kernel_cb_) kernel_cb_(rec);

  complete_op_bookkeeping(done.op.seq, done.op.non_blocking);
  recompute_rates();
}

void ReferenceEngine::run_until(const std::function<bool()>& pred) {
  // Stall guard: if the loop spins without the clock moving or work
  // completing, something violated an engine invariant — fail loudly with
  // state instead of hanging.
  int spins = 0;
  SimTime last_now = now_;
  std::size_t last_incomplete = incomplete_.size();

  while (!pred()) {
    if (start_ready_ops()) continue;
    const SimTime t = next_event_time();
    if (t == kInf) {
      // Nothing can ever make progress: either the predicate references
      // work that was never submitted, or there is a dependency cycle.
      throw glp::InternalError("gpusim: simulation stalled with no runnable work");
    }
    advance_to(t);

    if (now_ > last_now || incomplete_.size() != last_incomplete) {
      spins = 0;
      last_now = now_;
      last_incomplete = incomplete_.size();
    } else if (++spins > 100000) {
      std::string state = "gpusim: event loop is spinning; now=" +
                          std::to_string(now_) +
                          " next_event=" + std::to_string(next_event_time()) +
                          " resident=" + std::to_string(resident_.size()) +
                          " copies=" + std::to_string(copies_.size());
      for (const auto& [stream, queue] : queues_) {
        if (queue.empty()) continue;
        const Op& head = queue.front();
        state += " q" + std::to_string(stream) + "[head seq=" +
                 std::to_string(head.seq) +
                 " kind=" + std::to_string(static_cast<int>(head.kind)) +
                 " rel=" + std::to_string(head.release) +
                 " sdep=" + std::to_string(head.stream_dep) +
                 " ddep=" + std::to_string(head.default_dep) + "]";
      }
      double min_eta = -1;
      for (const ActiveKernel& k : resident_) {
        if (k.rate > 0.0) {
          const double eta = now_ + k.latency_left + k.work_left / k.rate;
          if (min_eta < 0 || eta < min_eta) min_eta = eta;
        }
      }
      state += " min_kernel_eta=" + std::to_string(min_eta);
      throw glp::InternalError(state);
    }
  }
  host_time_ = std::max(host_time_, now_);
}

void ReferenceEngine::advance_device_to(SimTime t) {
  // Lookahead for the serving event loop: drive the event loop until every
  // device-side event at or before `t` has been processed. Intentionally
  // leaves the host clock untouched (restored below) — peeking at the
  // device is not a synchronisation point.
  const SimTime saved_host = host_time_;
  int spins = 0;
  for (;;) {
    if (start_ready_ops()) {
      spins = 0;
      continue;
    }
    const SimTime next = next_event_time();
    if (next > t) break;
    GLP_CHECK(next >= now_);
    if (next > now_) spins = 0;
    else if (++spins > 100000) {
      throw glp::InternalError("gpusim: lookahead event loop is spinning");
    }
    advance_to(next);
  }
  // Burn partial work down to exactly `t` so a later lookahead (or sync)
  // resumes from a consistent fluid state.
  if (t > now_ && (!resident_.empty() || !copies_.empty())) advance_to(t);
  host_time_ = saved_host;
}

SimTime ReferenceEngine::peek_next_event() {
  int spins = 0;
  while (start_ready_ops()) {
    if (++spins > 100000) {
      throw glp::InternalError("gpusim: peek_next_event is spinning");
    }
  }
  return next_event_time();
}

void ReferenceEngine::synchronize_stream(StreamId stream) {
  auto it = queues_.find(stream);
  GLP_REQUIRE(it != queues_.end(), "synchronize on unknown stream " << stream);
  // The queue drains when ops *start*; resident/active work from this
  // stream must also have completed. Track via a sentinel event.
  const EventId ev = record_event(stream);
  synchronize_event(ev);
}

void ReferenceEngine::synchronize_event(EventId event) {
  GLP_REQUIRE(event_times_.count(event) != 0 || events_pending_.count(event) != 0,
              "synchronize on unknown event " << event);
  run_until([this, event] { return event_times_.count(event) != 0; });
}

void ReferenceEngine::synchronize() {
  run_until([this] { return incomplete_.empty(); });
}

bool ReferenceEngine::event_complete(EventId event) const {
  return event_times_.count(event) != 0;
}

SimTime ReferenceEngine::event_time(EventId event) const {
  auto it = event_times_.find(event);
  GLP_REQUIRE(it != event_times_.end(),
              "event " << event << " has not completed");
  return it->second;
}

bool ReferenceEngine::stream_idle(StreamId stream) const {
  auto it = queues_.find(stream);
  GLP_REQUIRE(it != queues_.end(), "query on unknown stream " << stream);
  if (!it->second.empty()) return false;
  for (const ActiveKernel& k : resident_) {
    if (k.op.stream == stream) return false;
  }
  for (const ActiveCopy& c : copies_) {
    if (c.op.stream == stream) return false;
  }
  return true;
}

}  // namespace gpusim
