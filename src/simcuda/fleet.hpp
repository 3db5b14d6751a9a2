#pragma once
// Multi-device fleet: N simulated devices joined by an explicit
// interconnect model (gpusim::LinkModel). Each device keeps its own
// Context (engine, allocator, fault injector); the fleet adds the
// cross-device glue — channel-aware transfer timing and co-simulation
// helpers that keep the per-device clocks consistent while transfers
// are resolved externally.
//
// Cross-device copies flow through the engines' memcpy_peer op: the
// fleet computes each transfer's exact (start, end) span on the shared
// LinkModel (processor-sharing contention, per-direction channels) and
// hands the span to the *destination* device, where the copy rides the
// normal event-horizon machinery — ordered by its stream, overlapped
// with compute, visible to events recorded after it. See
// docs/FLEET.md.

#include <memory>
#include <vector>

#include "gpusim/device_props.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/interconnect.hpp"
#include "simcuda/context.hpp"

namespace scuda {

struct FleetOptions {
  gpusim::LinkTopology topology = gpusim::LinkTopology::kNvlinkRing;
  gpusim::LinkProps link = gpusim::LinkProps::nvlink();
  gpusim::EngineKind engine = gpusim::EngineKind::kOptimized;
};

class Fleet {
 public:
  /// One context per entry of `device_props` (heterogeneous fleets are
  /// legal; the serving shard placer uses them).
  Fleet(std::vector<gpusim::DeviceProps> device_props, FleetOptions options);

  /// Homogeneous convenience: `count` copies of `props`.
  static Fleet homogeneous(int count, const gpusim::DeviceProps& props,
                           FleetOptions options = {});

  Fleet(Fleet&&) = default;
  Fleet& operator=(Fleet&&) = default;

  int size() const { return static_cast<int>(devices_.size()); }
  Context& device(int i) { return *devices_.at(static_cast<std::size_t>(i)); }
  const Context& device(int i) const {
    return *devices_.at(static_cast<std::size_t>(i));
  }
  gpusim::LinkModel& links() { return links_; }
  const gpusim::LinkModel& links() const { return links_; }
  const FleetOptions& options() const { return options_; }

  /// Drain every device's work queue (device-by-device; legal because
  /// inter-device dependencies are always materialized as memcpy_peer
  /// spans before this is called).
  void synchronize_all();

  /// Max of the per-device clocks — the fleet-wide makespan so far.
  gpusim::SimTime max_device_now() const;

 private:
  std::vector<std::unique_ptr<Context>> devices_;
  gpusim::LinkModel links_;
  FleetOptions options_;
};

}  // namespace scuda
