#pragma once
// Fleet differential: data-parallel training on an N-device fleet must
// be *bit-identical* to a single device consuming the same samples —
// the bit-exactness contract of comm/data_parallel.hpp.
//
// The reference run trains one net on one device, consuming each fleet
// iteration's N micro-batches sequentially, capturing each micro-batch's
// gradients, combining them with the *selected collective's* reference
// oracle — the same wave program the fleet schedules (ring or tree,
// with the same pipelining split and wire format),
// replayed on the host by reference_collective_allreduce — scaling by
// 1/N and applying ONE solver update. The fleet run trains the same
// spec through FleetTrainer over a real Fleet (link contention, eager
// bucketed overlap, non-blocking comm streams, per-device GLP4NN
// schedulers), optionally with fault injection armed on every device.
// Losses and every replica's parameters must match bit for bit.
//
// Cases ride the ordinary fuzz-case sampler, adjusted for the fleet
// corpus: Dropout is stripped (masks are drawn from each replica's
// private RNG, so replicas and the reference would diverge — see
// strip_dropout).

#include <cstddef>
#include <string>
#include <vector>

#include "comm/collectives.hpp"
#include "gpusim/interconnect.hpp"
#include "simcuda/fault_injection.hpp"
#include "testing/net_generator.hpp"
#include "testing/race_checker.hpp"

namespace glpfuzz {

struct FleetDiffOptions {
  int devices = 2;
  gpusim::LinkTopology topology = gpusim::LinkTopology::kNvlinkRing;
  /// Engine the fleet devices run on. The single-device reference always
  /// uses the optimized engine, so kReference doubles as a cross-engine
  /// differential over the whole fleet path (events, peer copies,
  /// non-blocking streams) on top of the data-parallel contract.
  gpusim::EngineKind engine = gpusim::EngineKind::kOptimized;
  /// Eager bucketed overlap (the default) or the serialize-then-reduce
  /// baseline; both must satisfy the same bit-exactness contract.
  bool overlap = true;
  /// Small default so the little fuzz nets still split into several
  /// buckets and exercise the eager per-bucket machinery.
  std::size_t bucket_bytes = std::size_t{1} << 12;
  /// Armed on every fleet device (per-device derived seeds); the
  /// single-device reference always runs fault-free.
  scuda::FaultConfig faults;
  /// Audit the iteration's TransferRecords against the link contract
  /// (capacity, conservation, profile sanity) via check_fleet_transfers.
  bool check_transfers = true;
  /// Collective algorithm / wire format / pipelining under test. The
  /// reference oracle replays whatever program these options select —
  /// including fp16-on-the-wire, which stays bit-exact against its own
  /// fp16 oracle (the fp32-tolerance contract is a separate test).
  comm::CollectiveOptions collective;
};

struct FleetDiffResult {
  bool ok = true;
  std::string failure;  ///< first failure, human-readable ("" when ok)

  std::vector<float> single_losses;
  std::vector<float> fleet_losses;
  std::size_t params_compared = 0;
  std::size_t buckets = 0;

  /// Merged link-contract report over every training iteration.
  FleetTransferReport transfers;

  // Fault accounting, summed over devices (fleet run only).
  std::size_t launch_faults = 0;
  std::size_t stream_faults = 0;
  /// Devices whose comm stream fell back to the default stream after an
  /// injected stream-creation failure.
  int comm_fallbacks = 0;
};

/// `spec` without its Dropout layers: each one is removed and, for the
/// non-in-place form, later references to its top are rewired to its
/// bottom. Every other layer is untouched.
mc::NetSpec strip_dropout(const mc::NetSpec& spec);

/// A fuzz case adjusted for the fleet corpus: Dropout stripped.
FuzzCase make_fleet_case(std::uint64_t seed, const NetGenOptions& gen = {});

/// Train `c` on an `opts.devices`-wide fleet and on the single-device
/// reference, and compare bit for bit. Never throws for a *failing*
/// comparison (inspect ok/failure); propagates unexpected errors.
FleetDiffResult run_fleet_differential(const FuzzCase& c,
                                       const FleetDiffOptions& opts = {});

}  // namespace glpfuzz
