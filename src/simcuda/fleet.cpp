#include "simcuda/fleet.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace scuda {

Fleet::Fleet(std::vector<gpusim::DeviceProps> device_props,
             FleetOptions options)
    : links_(static_cast<int>(device_props.size()), options.topology,
             options.link),
      options_(options) {
  GLP_REQUIRE(!device_props.empty(), "fleet needs at least one device");
  devices_.reserve(device_props.size());
  for (auto& props : device_props) {
    devices_.push_back(
        std::make_unique<Context>(std::move(props), options.engine));
  }
}

Fleet Fleet::homogeneous(int count, const gpusim::DeviceProps& props,
                         FleetOptions options) {
  GLP_REQUIRE(count >= 1, "fleet needs at least one device");
  std::vector<gpusim::DeviceProps> all(static_cast<std::size_t>(count), props);
  return Fleet(std::move(all), options);
}

void Fleet::synchronize_all() {
  for (auto& dev : devices_) dev->device().synchronize();
}

gpusim::SimTime Fleet::max_device_now() const {
  gpusim::SimTime t = 0.0;
  for (const auto& dev : devices_)
    t = std::max(t, dev->device().device_now());
  return t;
}

}  // namespace scuda
