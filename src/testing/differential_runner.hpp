#pragma once
// Differential runner: trains one sampled net twice — once under plain
// serial dispatch (the naive-Caffe baseline) and once under the GLP4NN
// runtime scheduler — and compares the results under the contract the
// paper and this reproduction promise: bit-identical losses and
// parameters, at every batch size, pool size and fault schedule. (Every
// gradient-accumulation slot is summed on one stream in the serial
// baseline's order; see kern::kSharedSlots.)
//
// The GLP run records its full gpusim timeline, which is then checked
// against the stream-ordering invariants (see race_checker.hpp). Faults
// can be armed on the GLP run only: correctness must survive injected
// launch/stream/profiler failures via graceful degradation.

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/timeline.hpp"
#include "simcuda/fault_injection.hpp"
#include "testing/net_generator.hpp"
#include "testing/race_checker.hpp"

namespace glpfuzz {

struct DiffOptions {
  bool check_timeline = true;
  /// Arm these fault rates on the GLP run's context (the serial baseline
  /// always runs fault-free). All-zero rates leave the injector disarmed.
  scuda::FaultConfig faults;
  /// Route the GLP runs of run_engine_differential through the NetDag
  /// executor (inter-operator DAG scheduling + fusion) instead of the
  /// serial layer loop. run_dag_differential ignores this — it always
  /// compares DAG against both non-DAG baselines.
  bool dag_schedule = false;
};

struct DiffResult {
  bool ok = true;
  std::string failure;  ///< first failure, human-readable ("" when ok)

  double max_param_diff = 0.0;
  double max_loss_diff = 0.0;
  std::size_t params_compared = 0;
  std::vector<float> serial_losses;
  std::vector<float> glp_losses;

  RaceReport races;

  // Fault-injection accounting (GLP run only).
  std::size_t launch_faults = 0;
  std::size_t stream_faults = 0;
  std::size_t capture_drops = 0;
  std::size_t serial_fallback_scopes = 0;
};

/// Does the bit-exact contract apply to this combination? Always: each
/// gradient slot is summed in the serial order whatever the batch and
/// pool size. Kept as the one place callers ask, so that a future
/// exception (say, a layer that reassociates sums) lands here.
bool bit_exact_contract(const mc::NetSpec& net,
                        const glp4nn::SchedulerOptions& options);

/// Train the case twice and compare. Never throws for a *failing*
/// comparison (inspect `ok`/`failure`); propagates unexpected errors
/// (bad net, simulator invariant breakage) as exceptions.
DiffResult run_differential(const FuzzCase& c, const DiffOptions& opts = {});

/// Field-for-field, bit-for-bit comparison of two recorded timelines
/// (kernel and copy records, including every timestamp's exact double
/// bits). Returns "" when identical, else a description of the first
/// difference.
std::string compare_timelines(const gpusim::Timeline& a,
                              const gpusim::Timeline& b);

struct EngineDiffResult {
  bool ok = true;
  std::string failure;  ///< first difference, human-readable ("" when ok)
  std::size_t kernels_compared = 0;
  std::size_t copies_compared = 0;
  std::size_t iters = 0;
};

/// Engine-vs-reference mode: train the case through the full GLP4NN
/// stack once on the optimized engine and once on ReferenceEngine, and
/// require the two runs to be indistinguishable — bit-identical losses
/// and parameters AND an event-for-event bit-identical device timeline.
/// This is the enforcement of the hot-path overhaul's contract: the
/// optimized loop must not change the simulation, only its wall-clock.
EngineDiffResult run_engine_differential(const FuzzCase& c,
                                         const DiffOptions& opts = {});

struct DagDiffResult {
  bool ok = true;
  std::string failure;  ///< first failure, human-readable ("" when ok)

  double max_param_diff_serial = 0.0;
  double max_param_diff_chain = 0.0;
  std::vector<float> serial_losses;
  std::vector<float> chain_losses;
  std::vector<float> dag_losses;

  RaceReport races;  ///< stream-ordering invariants, full DAG-run timeline
  /// One clean (post-training) forward / backward pass replayed against
  /// the NetDag's op DAG: no op's kernel may start before every producer
  /// op's kernel ended.
  OpScheduleReport forward_schedule;
  OpScheduleReport backward_schedule;

  // Fusion accounting (DAG run, forward pass).
  std::size_t relu_epilogues = 0;  ///< ReLUs absorbed into producer GEMMs
  std::size_t fused_chains = 0;    ///< coalesced elementwise chains

  // Fault accounting (DAG run).
  std::size_t launch_faults = 0;
  std::size_t stream_faults = 0;
  std::size_t serial_fallback_scopes = 0;
};

/// Three-way DAG differential: trains the case (1) under serial dispatch,
/// fault-free; (2) under the GLP scheduler with chain-only (non-DAG)
/// issue, faults armed; (3) under the GLP scheduler with DAG scheduling
/// and fusion, same faults armed. Requires DAG == serial AND DAG ==
/// chain-only, bit for bit, plus a clean race report and a clean
/// op-schedule replay (when opts.check_timeline).
DagDiffResult run_dag_differential(const FuzzCase& c,
                                   const DiffOptions& opts = {});

}  // namespace glpfuzz
