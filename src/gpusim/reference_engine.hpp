#pragma once
// The original SimDevice event loop, preserved verbatim as the golden
// reference for the optimized engine. Semantics are the contract; this
// implementation *is* the spec. The optimized SimDevice must reproduce
// its simulated timeline event-for-event and bit-for-bit (identical
// kernel/copy records, identical host-functor execution order, identical
// floating-point arithmetic), which the equivalence suite
// (tests/engine_equivalence_test.cpp, glp4nn_fuzz --engine-compare)
// asserts. Deliberately unoptimized: per-drain stable_sort, ordered
// std::map/std::set bookkeeping, full repack on every admission — do not
// "improve" this file; improve SimDevice and prove equivalence instead.

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gpusim/engine.hpp"

namespace gpusim {

class ReferenceEngine final : public DeviceEngine {
 public:
  explicit ReferenceEngine(DeviceProps props);

  StreamId create_stream(int priority = 0, bool non_blocking = false) override;
  int stream_priority(StreamId stream) const override;
  void destroy_stream(StreamId stream) override;
  int stream_count() const override { return static_cast<int>(queues_.size()); }

  std::uint64_t launch_kernel(StreamId stream, std::string name,
                              const LaunchConfig& config, const KernelCost& cost,
                              WorkFn work) override;
  std::uint64_t memcpy_async(StreamId stream, std::size_t bytes,
                             bool host_to_device, WorkFn work = {}) override;
  std::uint64_t memcpy_peer(StreamId stream, std::size_t bytes, int peer_device,
                            SimTime start_ns, SimTime end_ns,
                            WorkFn work = {}) override;
  EventId record_event(StreamId stream) override;
  EventId record_event_at(StreamId stream, SimTime issue_ns) override;
  void wait_event(StreamId stream, EventId event) override;
  void host_callback(StreamId stream, WorkFn fn) override;

  void synchronize_stream(StreamId stream) override;
  void synchronize_event(EventId event) override;
  void synchronize() override;
  bool event_complete(EventId event) const override;
  SimTime event_time(EventId event) const override;
  bool stream_idle(StreamId stream) const override;
  void advance_device_to(SimTime t) override;
  SimTime peek_next_event() override;
  /// Functors already ran at completion.
  void drain_host_work() override {}

 private:
  enum class OpKind : std::uint8_t {
    kKernel,
    kCopy,
    kEventRecord,
    kWaitEvent,
    kHostFn
  };

  struct Op {
    OpKind kind = OpKind::kKernel;
    std::uint64_t seq = 0;
    StreamId stream = kDefaultStream;
    SimTime release = 0.0;
    std::uint64_t default_dep = 0;
    std::uint64_t stream_dep = 0;
    bool barrier = false;
    bool non_blocking = false;
    int tenant = -1;

    // kKernel
    std::string name;
    LaunchConfig config;
    KernelCost cost;
    WorkFn work;
    std::uint64_t correlation = 0;

    // kCopy
    std::size_t bytes = 0;
    bool host_to_device = true;
    int peer = -1;             ///< peer device of a cross-device copy
    SimTime peer_start = 0.0;  ///< link-granted start (peer copies only)
    SimTime peer_end = 0.0;    ///< link-computed completion (peer copies only)

    // kEventRecord / kWaitEvent
    EventId event = 0;
    SimTime issue_at = -1.0;   ///< comm-driver release override (< 0: host)
  };

  struct ActiveKernel {
    Op op;
    SimTime admit_ns = 0.0;
    SimTime latency_left = 0.0;
    double work_left = 0.0;
    double work_per_block = 0.0;
    double rate = 0.0;
    double lanes = 0.0;
  };

  struct ActiveCopy {
    Op op;
    SimTime start_ns = 0.0;
    SimTime end_ns = 0.0;
  };

  void submit(Op op, SimTime host_cost_ns);
  void run_until(const std::function<bool()>& pred);
  bool start_ready_ops();
  bool op_ready(const Op& op) const;
  void complete_op_bookkeeping(std::uint64_t seq, bool non_blocking);
  void recompute_rates();
  SimTime next_event_time() const;
  void advance_to(SimTime t);
  void finish_kernel(std::size_t idx);

  std::map<StreamId, std::deque<Op>> queues_;
  std::map<StreamId, int> stream_priority_;
  std::set<StreamId> non_blocking_streams_;
  std::map<StreamId, std::uint64_t> last_seq_in_stream_;
  std::set<std::uint64_t> incomplete_;
  /// Incomplete ops on *blocking* streams only — the set the legacy
  /// default-stream barrier consults (non-blocking streams are exempt).
  std::set<std::uint64_t> blocking_incomplete_;
  std::map<EventId, SimTime> event_times_;
  std::set<EventId> events_pending_;
  std::vector<ActiveKernel> resident_;
  std::vector<ActiveCopy> copies_;
};

}  // namespace gpusim
