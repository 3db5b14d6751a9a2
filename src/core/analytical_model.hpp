#pragma once
// The paper's analytical model (§3.2, Eqs. 1–9): given the kernel types
// of a scope and the device's limits, choose how many instances of each
// kernel (#K_i) to run concurrently so SM occupancy (Eq. 1) is maximised
// under the hard constraints — shared memory per SM (Eq. 4), threads per
// SM (Eq. 5) and the device concurrency degree (Eq. 6) — with per-kernel
// upper bounds from Eq. 7. Registers are a soft constraint and excluded,
// exactly as in the paper. The resulting bounded integer program is
// solved with the in-repo branch-and-bound MILP solver (the paper used
// GLPK).

#include "core/types.hpp"
#include "gpusim/device_props.hpp"

namespace glp4nn {

class AnalyticalModel {
 public:
  explicit AnalyticalModel(gpusim::DeviceProps props) : props_(std::move(props)) {}

  const gpusim::DeviceProps& props() const { return props_; }

  /// Solve the model for one scope's kernel set. Also measures T_a.
  ConcurrencyDecision analyze(const std::string& scope,
                              const std::vector<KernelStats>& kernels) const;

  /// Eq. 8 — blocks per SM for kernel K, floored at 1 (a kernel with
  /// fewer blocks than SMs still occupies one block somewhere; the
  /// paper's floor would zero its contribution).
  int beta_per_sm(const KernelStats& k) const;

  /// Eq. 7 — upper bound on #K_i: min of the launch-rate bound
  /// ceil(T_K / T_launch) and the thread / shared-memory capacity bounds.
  int upper_bound(const KernelStats& k) const;

 private:
  gpusim::DeviceProps props_;
};

}  // namespace glp4nn
