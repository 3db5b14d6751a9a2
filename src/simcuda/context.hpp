#pragma once
// CUDA-runtime-like context for one simulated device: owns the engine,
// tracks "device" memory allocations against the device's capacity, and
// offers the memcpy entry points. Allocations are ordinary host memory —
// the simulator only times transfers; math runs in place.

#include <cstddef>
#include <map>
#include <memory>

#include "common/check.hpp"
#include "gpusim/device_props.hpp"
#include "gpusim/engine.hpp"
#include "simcuda/fault_injection.hpp"

namespace scuda {

using gpusim::StreamId;
using gpusim::kDefaultStream;

class OutOfMemory : public glp::Error {
 public:
  explicit OutOfMemory(const std::string& what) : Error(what) {}
};

class Context {
 public:
  /// `kind` selects the event-loop implementation: the optimized engine
  /// (default, production) or the golden ReferenceEngine — the testing
  /// seam the equivalence suite runs the whole stack through.
  explicit Context(gpusim::DeviceProps props,
                   gpusim::EngineKind kind = gpusim::EngineKind::kOptimized)
      : device_(gpusim::make_device_engine(std::move(props), kind)) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  gpusim::DeviceEngine& device() { return *device_; }
  const gpusim::DeviceEngine& device() const { return *device_; }
  const gpusim::DeviceProps& props() const { return device_->props(); }

  /// Allocate `bytes` of device memory. Throws OutOfMemory when the
  /// simulated device capacity would be exceeded.
  void* malloc(std::size_t bytes);
  void free(void* ptr);
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  std::size_t peak_bytes_allocated() const { return peak_bytes_; }

  /// Timed async H2D/D2H copy. `dst`/`src` must stay alive until the
  /// stream completes. Actual byte movement happens once the copy has
  /// completed (ordering is guaranteed by the stream).
  void memcpy_async(void* dst, const void* src, std::size_t bytes,
                    bool host_to_device, StreamId stream);
  /// Synchronous copy: issues on the default stream and synchronises it.
  void memcpy(void* dst, const void* src, std::size_t bytes, bool host_to_device);

  /// Fault-injection hooks (disarmed by default; see fault_injection.hpp).
  /// The launcher, Stream::create and the resource tracker consult this
  /// before touching the device, mimicking runtime-API error returns.
  FaultInjector& faults() { return faults_; }
  const FaultInjector& faults() const { return faults_; }

 private:
  std::unique_ptr<gpusim::DeviceEngine> device_;
  FaultInjector faults_;
  std::map<void*, std::size_t> allocations_;
  std::size_t bytes_allocated_ = 0;
  std::size_t peak_bytes_ = 0;
};

/// RAII stream handle. Default-constructible as a view of the device's
/// default stream; create(ctx) makes a new asynchronous stream.
class Stream {
 public:
  /// View of the legacy default stream (does not own anything).
  explicit Stream(Context& ctx) : ctx_(&ctx), id_(kDefaultStream), owned_(false) {}

  /// `non_blocking` is the cudaStreamNonBlocking analog: the stream is
  /// exempt from the legacy default-stream barrier (fleet communication
  /// traffic must overlap default-stream compute).
  static Stream create(Context& ctx, int priority = 0,
                       bool non_blocking = false) {
    if (ctx.faults().should_fail_stream_create()) {
      throw StreamCreateFailed("injected stream-creation failure on device " +
                               ctx.props().name);
    }
    Stream s(ctx);
    s.id_ = ctx.device().create_stream(priority, non_blocking);
    s.owned_ = true;
    return s;
  }
  /// Priority the stream was created with.
  int priority() const { return ctx_->device().stream_priority(id_); }

  Stream(Stream&& other) noexcept
      : ctx_(other.ctx_), id_(other.id_), owned_(other.owned_) {
    other.owned_ = false;
  }
  Stream& operator=(Stream&& other) noexcept {
    if (this != &other) {
      release();
      ctx_ = other.ctx_;
      id_ = other.id_;
      owned_ = other.owned_;
      other.owned_ = false;
    }
    return *this;
  }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;
  ~Stream() { release(); }

  StreamId id() const { return id_; }
  Context& context() const { return *ctx_; }
  bool is_default() const { return id_ == kDefaultStream; }

  void synchronize() { ctx_->device().synchronize_stream(id_); }
  bool idle() const { return ctx_->device().stream_idle(id_); }

 private:
  void release() {
    if (owned_) {
      ctx_->device().destroy_stream(id_);
      owned_ = false;
    }
  }

  Context* ctx_;
  StreamId id_;
  bool owned_;
};

/// RAII event handle in the CUDA style: record() captures a point in a
/// stream, synchronize()/query() observe it, elapsed_ms() measures the
/// simulated interval between two recorded events.
class Event {
 public:
  explicit Event(Context& ctx) : ctx_(&ctx) {}

  void record(const Stream& stream) {
    id_ = ctx_->device().record_event(stream.id());
    recorded_ = true;
  }
  void record(StreamId stream) {
    id_ = ctx_->device().record_event(stream);
    recorded_ = true;
  }

  bool recorded() const { return recorded_; }
  gpusim::EventId id() const {
    GLP_REQUIRE(recorded_, "event was never recorded");
    return id_;
  }

  void synchronize() { ctx_->device().synchronize_event(id()); }
  bool query() const { return recorded_ && ctx_->device().event_complete(id_); }

  /// Simulated milliseconds between this event and `later`
  /// (cudaEventElapsedTime). Both events must have completed.
  float elapsed_ms(const Event& later) const {
    const gpusim::SimTime t0 = ctx_->device().event_time(id());
    const gpusim::SimTime t1 = later.ctx_->device().event_time(later.id());
    return static_cast<float>((t1 - t0) / 1e6);
  }

 private:
  Context* ctx_;
  gpusim::EventId id_ = 0;
  bool recorded_ = false;
};

}  // namespace scuda
