#pragma once
// Serving differential runner: replays one sampled inference trace on
// the GLP4NN tenant-sliced scheduler with batching enabled and checks
// the serving contract against an oracle of one synchronized batch-1
// forward per request on the serial dispatcher:
//
//   * every request is served, and its output is bit-identical to its
//     batch-1 forward (batching pads with copies of real samples and
//     per-sample scopes are data-independent, so there is no tolerance
//     regime here);
//   * within a tenant, responses complete in arrival order (batches may
//     interleave across tenants, never within one);
//   * the scheduled replay's timeline passes the stream-ordering race
//     checks.

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device_props.hpp"
#include "serving/batcher.hpp"
#include "serving/trace_gen.hpp"
#include "testing/net_generator.hpp"
#include "testing/race_checker.hpp"

namespace glpfuzz {

/// One fully-sampled serving-differential case.
struct ServeCase {
  std::uint64_t seed = 0;
  std::vector<mc::NetSpec> nets;  ///< one tenant per net (1 or 2)
  gpusim::DeviceProps device;
  serving::BatchPolicy batch;  ///< subject-side batching policy (mode too)
  bool coalesce = false;       ///< subject-side lane coalescing
  int slots = 2;
  serving::TraceSpec trace;

  std::string summary() const;
};

/// Sample a complete serving case from a seed: random inference nets
/// (see random_inference_net), a random device, a random batching policy
/// and a short random open-loop trace.
ServeCase make_serving_case(std::uint64_t seed,
                            const NetGenOptions& options = {});

struct ServeDiffResult {
  bool ok = true;
  std::string failure;  ///< first failure, human-readable ("" when ok)

  std::size_t requests = 0;
  std::size_t served = 0;
  std::uint64_t subject_batches = 0;  ///< batches the scheduled replay formed
  double max_output_diff = 0.0;       ///< 0.0 when bit-exact (the contract)

  RaceReport races;  ///< scheduled replay's timeline checks
};

/// Replay the case and check it against the oracle. Never throws for a
/// *failing* comparison (inspect `ok`/`failure`); propagates unexpected
/// errors as exceptions.
ServeDiffResult run_serving_differential(const ServeCase& c,
                                         bool check_timeline = true);

struct ServeEngineDiffResult {
  bool ok = true;
  std::string failure;  ///< first difference, human-readable ("" when ok)
  std::size_t requests = 0;
  std::size_t kernels_compared = 0;
  std::size_t copies_compared = 0;
};

/// Engine-vs-reference mode for serving: replay the scheduled, batched
/// subject configuration once on the optimized engine and once on
/// ReferenceEngine and require indistinguishable results — identical
/// request outcomes, batch assignments, bit-identical arrival/issue/
/// completion timestamps and outputs, and an event-for-event identical
/// device timeline.
ServeEngineDiffResult run_serving_engine_differential(const ServeCase& c);

}  // namespace glpfuzz
