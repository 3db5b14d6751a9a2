#include "comm/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>

#include "comm/wire.hpp"
#include "common/check.hpp"

namespace comm {

namespace {

/// Chunk c of a `count`-element range split n ways: [lo, hi).
std::pair<std::size_t, std::size_t> chunk_range(std::size_t count, int n,
                                                int c) {
  const auto lo = static_cast<std::size_t>(
      static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(c) /
      static_cast<std::uint64_t>(n));
  const auto hi = static_cast<std::size_t>(
      static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(c + 1) /
      static_cast<std::uint64_t>(n));
  return {lo, hi};
}

void push_transfer(CollectiveProgram& prog, int src, int dst, std::size_t lo,
                   std::size_t hi, bool accumulate, int wave) {
  if (hi <= lo) return;  // never emit empty-segment transfers
  CollectiveTransfer t;
  t.src = src;
  t.dst = dst;
  t.lo = lo;
  t.hi = hi;
  t.accumulate = accumulate;
  t.wave = wave;
  prog.transfers.push_back(t);
}

/// Two-phase ring over n devices on [0, cnt): n-1 reduce-scatter waves
/// then n-1 all-gather waves. Reduce-scatter step s: device i forwards
/// chunk (i-s)%n to its successor, which accumulates — leaving device
/// (c+n-1)%n owning chunk c's full sum. All-gather step s: device i
/// forwards final chunk (i+1-s)%n and its successor overwrites.
void append_ring(CollectiveProgram& prog, int n, std::size_t cnt, int& wave) {
  for (const bool accumulate : {true, false}) {
    for (int s = 0; s < n - 1; ++s, ++wave) {
      for (int i = 0; i < n; ++i) {
        const int chunk =
            accumulate ? (i - s + n) % n : (i + 1 - s + 2 * n) % n;
        const auto [lo, hi] = chunk_range(cnt, n, chunk);
        push_transfer(prog, i, (i + 1) % n, lo, hi, accumulate, wave);
      }
    }
  }
}

/// Recursive halving/doubling all-reduce over m devices on [0, cnt).
/// Non-power-of-two sizes fold: the r = m - p extra members first add
/// their whole vector into a core member (one wave) and receive the
/// finished vector at the end (one wave); the p-member core runs
/// log2(p) halving waves (accumulate) and log2(p) doubling waves
/// (overwrite).
void append_tree(CollectiveProgram& prog, int m, std::size_t cnt, int& wave) {
  GLP_CHECK(m >= 2);
  int p = 1;
  while (p * 2 <= m) p *= 2;
  const int r = m - p;

  if (r > 0) {
    for (int e = 0; e < r; ++e) {
      push_transfer(prog, p + e, e, 0, cnt, /*accumulate=*/true, wave);
    }
    ++wave;
  }

  // Per-core-member owned range; partners always hold identical ranges
  // (they share every earlier round's keep-low/keep-high decision).
  std::vector<std::size_t> lo(static_cast<std::size_t>(p), 0);
  std::vector<std::size_t> hi(static_cast<std::size_t>(p), cnt);
  int rounds = 0;
  for (int q = p; q > 1; q /= 2) ++rounds;

  std::vector<int> dist_of_round(static_cast<std::size_t>(rounds));
  for (int k = 0; k < rounds; ++k) dist_of_round[static_cast<std::size_t>(k)] = p >> (k + 1);

  for (int k = 0; k < rounds; ++k, ++wave) {
    const int dist = dist_of_round[static_cast<std::size_t>(k)];
    for (int i = 0; i < p; ++i) {
      const int j = i ^ dist;
      if (i > j) continue;
      const std::size_t a = static_cast<std::size_t>(i);
      const std::size_t b = static_cast<std::size_t>(j);
      const std::size_t mid = lo[a] + (hi[a] - lo[a]) / 2;
      // Lower partner keeps [lo, mid), upper keeps [mid, hi).
      push_transfer(prog, i, j, mid, hi[a], /*accumulate=*/true, wave);
      push_transfer(prog, j, i, lo[a], mid, /*accumulate=*/true, wave);
      hi[a] = mid;
      lo[b] = mid;
    }
  }
  for (int k = rounds - 1; k >= 0; --k, ++wave) {
    const int dist = dist_of_round[static_cast<std::size_t>(k)];
    for (int i = 0; i < p; ++i) {
      const int j = i ^ dist;
      if (i > j) continue;
      const std::size_t a = static_cast<std::size_t>(i);
      const std::size_t b = static_cast<std::size_t>(j);
      push_transfer(prog, i, j, lo[a], hi[a], /*accumulate=*/false, wave);
      push_transfer(prog, j, i, lo[b], hi[b], /*accumulate=*/false, wave);
      const std::size_t nlo = std::min(lo[a], lo[b]);
      const std::size_t nhi = std::max(hi[a], hi[b]);
      lo[a] = lo[b] = nlo;
      hi[a] = hi[b] = nhi;
    }
  }

  if (r > 0) {
    for (int e = 0; e < r; ++e) {
      push_transfer(prog, e, p + e, 0, cnt, /*accumulate=*/false, wave);
    }
    ++wave;
  }
}

/// Uncovered sub-intervals of one transfer's range while its producer
/// scan walks backward through the program. A producer claims the part
/// of its write that intersects a gap; the scan for that device stops
/// once no gaps remain.
struct GapSet {
  std::vector<std::pair<std::size_t, std::size_t>> gaps;

  explicit GapSet(std::size_t lo, std::size_t hi) { gaps.push_back({lo, hi}); }
  bool empty() const { return gaps.empty(); }

  /// True iff [lo, hi) intersects a remaining gap; the intersection is
  /// carved out of the gap set.
  bool claim(std::size_t lo, std::size_t hi) {
    bool hit = false;
    std::vector<std::pair<std::size_t, std::size_t>> next;
    next.reserve(gaps.size() + 1);
    for (const auto& g : gaps) {
      if (lo >= g.second || hi <= g.first) {
        next.push_back(g);
        continue;
      }
      hit = true;
      if (g.first < lo) next.push_back({g.first, lo});
      if (hi < g.second) next.push_back({hi, g.second});
    }
    gaps.swap(next);
    return hit;
  }
};

/// Fills src_deps/dst_deps: walking backward from each transfer, every
/// earlier transfer (same piece) that wrote a not-yet-claimed part of
/// this transfer's range on its source (the payload's producers) or
/// destination (the value the functor accumulates into / must not
/// overwrite early) becomes a dependency. Program order is wave-major,
/// so "earlier" is causal order. Each scan stops once the newest
/// producers jointly cover the range: any older writer to a covered
/// sub-range is itself a (transitive) dependency of the producer that
/// claimed it, so waiting for the claimants orders the whole history.
void compute_deps(std::vector<CollectiveTransfer>& ts, std::size_t begin,
                  std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    CollectiveTransfer& t = ts[i];
    GapSet src_gaps(t.lo, t.hi);
    GapSet dst_gaps(t.lo, t.hi);
    for (std::size_t jj = i; jj > begin; --jj) {
      const std::size_t j = jj - 1;
      const CollectiveTransfer& w = ts[j];
      if (w.lo >= t.hi || w.hi <= t.lo) continue;  // disjoint ranges
      if (!src_gaps.empty() && w.dst == t.src && src_gaps.claim(w.lo, w.hi)) {
        t.src_deps.push_back(static_cast<std::int32_t>(j));
      }
      if (!dst_gaps.empty() && w.dst == t.dst && dst_gaps.claim(w.lo, w.hi)) {
        t.dst_deps.push_back(static_cast<std::int32_t>(j));
      }
      if (src_gaps.empty() && dst_gaps.empty()) break;
    }
  }
}

}  // namespace

const char* to_string(CollectiveAlgo algo) {
  switch (algo) {
    case CollectiveAlgo::kRing: return "ring";
    case CollectiveAlgo::kTree: return "tree";
  }
  return "?";
}

const char* to_string(CollectiveChoice choice) {
  switch (choice) {
    case CollectiveChoice::kAuto: return "auto";
    case CollectiveChoice::kRing: return "ring";
    case CollectiveChoice::kTree: return "tree";
  }
  return "?";
}

const char* to_string(WireFormat wire) {
  return wire == WireFormat::kFp16 ? "fp16" : "fp32";
}

std::optional<CollectiveChoice> parse_collective(const std::string& s) {
  if (s == "auto") return CollectiveChoice::kAuto;
  if (s == "ring") return CollectiveChoice::kRing;
  if (s == "tree") return CollectiveChoice::kTree;
  return std::nullopt;
}

bool collective_feasible(CollectiveAlgo algo, int devices,
                         gpusim::LinkTopology topology) {
  switch (algo) {
    case CollectiveAlgo::kRing:
      return devices >= 1;
    case CollectiveAlgo::kTree:
      // Halving/doubling pairs non-neighbour devices; only the shared
      // PCIe channel carries arbitrary pairs.
      return topology == gpusim::LinkTopology::kPcieHost && devices >= 2;
  }
  return false;
}

CollectiveProgram build_collective_program(CollectiveAlgo algo, int devices,
                                           std::size_t count) {
  CollectiveProgram prog;
  prog.algo = algo;
  prog.devices = devices;
  prog.count = count;
  if (devices <= 1 || count == 0) return prog;

  int wave = 0;
  if (algo == CollectiveAlgo::kRing) {
    append_ring(prog, devices, count, wave);
  } else {
    append_tree(prog, devices, count, wave);
  }
  prog.waves = wave;
  compute_deps(prog.transfers, 0, prog.transfers.size());
  return prog;
}

namespace {

/// `algo`'s program split into pieces of at most pipeline_chunk_bytes
/// wire bytes, each an independent program over a disjoint range.
CollectiveProgram plan_pieces(CollectiveAlgo algo, int devices,
                              std::size_t count,
                              const CollectiveOptions& options) {
  int pieces = 1;
  if (options.pipeline_chunk_bytes > 0 && count > 0) {
    const std::size_t total = count * wire_bytes(options.wire);
    pieces = static_cast<int>(
        (total + options.pipeline_chunk_bytes - 1) / options.pipeline_chunk_bytes);
    pieces = std::max(1, std::min<int>(pieces, static_cast<int>(
                                                   std::min<std::size_t>(
                                                       count, 64))));
  }

  if (pieces == 1) {
    CollectiveProgram prog = build_collective_program(algo, devices, count);
    prog.pieces = 1;
    return prog;
  }

  CollectiveProgram merged;
  merged.algo = algo;
  merged.devices = devices;
  merged.count = count;
  merged.pieces = pieces;
  for (int j = 0; j < pieces; ++j) {
    const auto [plo, phi] = chunk_range(count, pieces, j);
    if (phi <= plo) continue;
    CollectiveProgram piece = build_collective_program(algo, devices, phi - plo);
    const int offset = static_cast<int>(merged.transfers.size());
    for (CollectiveTransfer t : piece.transfers) {
      t.lo += plo;
      t.hi += plo;
      t.piece = j;
      for (std::int32_t& d : t.src_deps) d += offset;
      for (std::int32_t& d : t.dst_deps) d += offset;
      merged.transfers.push_back(t);
    }
    merged.waves = std::max(merged.waves, piece.waves);
  }
  return merged;
}

/// Registers `prog` on `links` as one dependency-aware batch and returns
/// each transfer's link id. A transfer's request is floored by its
/// source's ready time (first sends), the receiver's ready time
/// (accumulates read the local term), its channel's cross-bucket FIFO
/// floor, and — via begin_after — the completion of the transfers that
/// produced its payload and its destination value. Within the batch,
/// waves of independent pipeline pieces overlap freely under exact PS.
std::vector<std::uint64_t> register_program(
    gpusim::LinkModel& links, const CollectiveProgram& prog, std::size_t eb,
    const std::vector<gpusim::SimTime>& ready,
    const std::vector<gpusim::SimTime>& channel_free) {
  const std::size_t T = prog.transfers.size();
  std::vector<std::uint64_t> link_id(T);
  std::vector<std::uint64_t> deps;
  for (std::size_t i = 0; i < T; ++i) {
    const CollectiveTransfer& t = prog.transfers[i];
    const int ch = links.channel_for(t.src, t.dst);
    gpusim::SimTime floor = channel_free[static_cast<std::size_t>(ch)];
    floor = std::max(floor, ready[static_cast<std::size_t>(t.src)]);
    if (t.accumulate) {
      floor = std::max(floor, ready[static_cast<std::size_t>(t.dst)]);
    }
    deps.clear();
    for (std::int32_t d : t.src_deps)
      deps.push_back(link_id[static_cast<std::size_t>(d)]);
    for (std::int32_t d : t.dst_deps)
      deps.push_back(link_id[static_cast<std::size_t>(d)]);
    link_id[i] =
        links.begin_after(t.src, t.dst, (t.hi - t.lo) * eb, floor, deps);
  }
  return link_id;
}

/// Makespan of `prog` alone on a scratch link model, every payload ready
/// at 0: the registration CollectiveEngine::reduce makes on an idle
/// fleet, timed without touching any device.
gpusim::SimTime dry_run_ns(const CollectiveProgram& prog,
                           gpusim::LinkTopology topology,
                           const gpusim::LinkProps& props, WireFormat wire) {
  gpusim::LinkModel links(prog.devices, topology, props);
  register_program(
      links, prog, wire_bytes(wire),
      std::vector<gpusim::SimTime>(static_cast<std::size_t>(prog.devices), 0.0),
      std::vector<gpusim::SimTime>(
          static_cast<std::size_t>(links.channel_count()), 0.0));
  links.finalize_all();
  gpusim::SimTime end = 0.0;
  for (const gpusim::TransferRecord& r : links.take_completed()) {
    end = std::max(end, r.end_ns);
  }
  return end;
}

}  // namespace

CollectiveProgram plan_collective(int devices, gpusim::LinkTopology topology,
                                  const gpusim::LinkProps& props,
                                  const CollectiveOptions& options,
                                  std::size_t count) {
  if (options.collective != CollectiveChoice::kAuto) {
    const CollectiveAlgo algo = options.collective == CollectiveChoice::kTree
                                    ? CollectiveAlgo::kTree
                                    : CollectiveAlgo::kRing;
    if (collective_feasible(algo, devices, topology)) {
      return plan_pieces(algo, devices, count, options);
    }
    // An explicitly requested but infeasible algorithm (tree on the
    // NVLink ring) degrades to the best feasible one instead of failing
    // — the CLI stays topology-agnostic.
  }
  std::vector<CollectiveAlgo> candidates;
  for (const CollectiveAlgo algo :
       {CollectiveAlgo::kRing, CollectiveAlgo::kTree}) {
    if (collective_feasible(algo, devices, topology)) {
      candidates.push_back(algo);
    }
  }
  CollectiveProgram best =
      plan_pieces(candidates.front(), devices, count, options);
  if (candidates.size() == 1 || best.transfers.empty()) return best;
  gpusim::SimTime best_ns = dry_run_ns(best, topology, props, options.wire);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    CollectiveProgram prog =
        plan_pieces(candidates[i], devices, count, options);
    const gpusim::SimTime ns = dry_run_ns(prog, topology, props, options.wire);
    if (ns < best_ns ||
        (ns == best_ns && prog.transfers.size() < best.transfers.size())) {
      best = std::move(prog);
      best_ns = ns;
    }
  }
  return best;
}

void reference_collective_allreduce(const CollectiveProgram& program,
                                    const std::vector<float*>& grads,
                                    std::size_t count, WireFormat wire) {
  GLP_REQUIRE(static_cast<int>(grads.size()) == program.devices,
              "reference replay: one gradient array per device");
  GLP_REQUIRE(count == program.count, "reference replay: count mismatch");
  const bool fp16 = wire == WireFormat::kFp16;
  std::vector<float> staged;
  for (const CollectiveTransfer& t : program.transfers) {
    float* src = grads[static_cast<std::size_t>(t.src)];
    float* dst = grads[static_cast<std::size_t>(t.dst)];
    const std::size_t n = t.hi - t.lo;
    staged.resize(n);
    if (fp16 && !t.accumulate) {
      // Quantize the fully-reduced source range in place before its
      // all-gather send (idempotent on re-sends), exactly as the
      // scheduled executor does — every replica ends bit-identical.
      for (std::size_t k = 0; k < n; ++k)
        src[t.lo + k] = quantize_fp16(src[t.lo + k]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      staged[k] = fp16 ? quantize_fp16(src[t.lo + k]) : src[t.lo + k];
    }
    if (t.accumulate) {
      for (std::size_t k = 0; k < n; ++k) dst[t.lo + k] += staged[k];
    } else {
      for (std::size_t k = 0; k < n; ++k) dst[t.lo + k] = staged[k];
    }
  }
}

CollectiveEngine::CollectiveEngine(scuda::Fleet& fleet,
                                   CollectiveOptions options)
    : fleet_(&fleet), options_(options) {
  lane_count_ = std::max(1, options_.lanes);
  lanes_.reserve(static_cast<std::size_t>(fleet.size() * lane_count_));
  for (int d = 0; d < fleet.size(); ++d) {
    scuda::Context& ctx = fleet.device(d);
    for (int l = 0; l < lane_count_; ++l) {
      try {
        lanes_.push_back(
            scuda::Stream::create(ctx, /*priority=*/0, /*non_blocking=*/true));
      } catch (const scuda::StreamCreateFailed&) {
        // Injected fault: fall back to the default stream for this lane.
        // Receives then serialize with compute — timing degrades,
        // numerics are identical for every algorithm.
        lanes_.push_back(scuda::Stream(ctx));
      }
    }
  }
  channel_free_.assign(
      static_cast<std::size_t>(fleet.links().channel_count()), 0.0);
}

bool CollectiveEngine::fallback(int d) const {
  for (int l = 0; l < lane_count_; ++l) {
    if (lanes_[static_cast<std::size_t>(d * lane_count_ + l)].is_default())
      return true;
  }
  return false;
}

const CollectiveProgram& CollectiveEngine::program_for(std::size_t count) {
  for (auto& [c, prog] : programs_) {
    if (c == count) return prog;
  }
  programs_.emplace_back(
      count, plan_collective(fleet_->size(), fleet_->links().topology(),
                             fleet_->links().props(), options_, count));
  return programs_.back().second;
}

CollectiveAlgo CollectiveEngine::algo_for(std::size_t count) {
  return program_for(count).algo;
}

void CollectiveEngine::reset() {
  staging_f32_.clear();
  staging_f16_.clear();
  transfers_.clear();
}

float* CollectiveEngine::stage_f32(std::size_t count) {
  staging_f32_.push_back(std::make_unique<float[]>(count));
  return staging_f32_.back().get();
}

std::uint16_t* CollectiveEngine::stage_f16(std::size_t count) {
  staging_f16_.push_back(std::make_unique<std::uint16_t[]>(count));
  return staging_f16_.back().get();
}

std::vector<gpusim::EventId> CollectiveEngine::reduce(
    const std::vector<float*>& flat, std::size_t count,
    const std::vector<gpusim::SimTime>& ready_ns, bool numeric) {
  const int n = fleet_->size();
  GLP_REQUIRE(static_cast<int>(flat.size()) == n &&
                  static_cast<int>(ready_ns.size()) == n,
              "reduce: one flat buffer and ready time per device");

  // The schedule must never land in a device's past. A profiling-mode
  // scheduler scope synchronizes its device mid-backward, which drives
  // that device's clock beyond the bucket-ready event timestamps; the
  // engine clamps a peer copy's completion to its own clock, so a copy
  // scheduled in the past would run its receive functor AFTER the
  // staging snapshot below reads the destination buffer. Floor every
  // ready time at the owning device's current clock instead — times
  // already in the future are unchanged, so overlap is preserved.
  std::vector<gpusim::SimTime> ready0(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    ready0[static_cast<std::size_t>(d)] =
        std::max(ready_ns[static_cast<std::size_t>(d)],
                 fleet_->device(d).device().device_now());
  }

  std::vector<gpusim::EventId> done(static_cast<std::size_t>(n));
  auto idle_done = [&](int d) {
    // Nothing to receive (1-device fleet, empty bucket, or a bucket so
    // small this device's segments are all empty): done the moment the
    // local gradient is ready. No zero-byte link messages are issued.
    gpusim::DeviceEngine& dev = fleet_->device(d).device();
    return dev.record_event_at(lane_stream(d, 0),
                               std::max(ready0[static_cast<std::size_t>(d)],
                                        dev.device_now()));
  };

  const CollectiveProgram& prog = program_for(count);
  if (n == 1 || prog.transfers.empty()) {
    for (int d = 0; d < n; ++d) done[static_cast<std::size_t>(d)] = idle_done(d);
    return done;
  }

  gpusim::LinkModel& links = fleet_->links();
  const std::size_t eb = wire_bytes(options_.wire);
  const std::size_t T = prog.transfers.size();

  const std::vector<std::uint64_t> link_id =
      register_program(links, prog, eb, ready0, channel_free_);
  links.finalize_all();
  std::vector<gpusim::TransferRecord> recs = links.take_completed();
  GLP_CHECK(recs.size() == T);

  std::vector<const gpusim::TransferRecord*> rec_of(T, nullptr);
  for (const auto& r : recs) {
    for (std::size_t i = 0; i < T; ++i) {
      if (link_id[i] == r.id) {
        rec_of[i] = &r;
        break;
      }
    }
    channel_free_[static_cast<std::size_t>(r.channel)] = std::max(
        channel_free_[static_cast<std::size_t>(r.channel)], r.end_ns);
  }
  for (std::size_t i = 0; i < T; ++i) GLP_CHECK(rec_of[i] != nullptr);

  // Submit receives in global (start, id) order: every lane sees its
  // peer copies in start order, and a transfer's producers are always
  // submitted (and their markers recorded) before it.
  std::vector<std::size_t> order(T);
  for (std::size_t i = 0; i < T; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rec_of[a]->start_ns != rec_of[b]->start_ns)
      return rec_of[a]->start_ns < rec_of[b]->start_ns;
    return rec_of[a]->id < rec_of[b]->id;
  });

  constexpr gpusim::EventId kNoMarker =
      std::numeric_limits<gpusim::EventId>::max();
  std::vector<gpusim::EventId> marker(T, kNoMarker);
  struct Last {
    gpusim::SimTime end_ns = -1.0;
    gpusim::EventId marker = kNoMarker;
  };
  // Latest receive per (device, lane): the per-device done event joins
  // every lane the device actually used.
  std::vector<Last> last(static_cast<std::size_t>(n * lane_count_));

  const bool fp16 = options_.wire == WireFormat::kFp16;
  for (std::size_t oi : order) {
    const CollectiveTransfer& t = prog.transfers[oi];
    const gpusim::TransferRecord* rec = rec_of[oi];
    const int lane = t.piece % lane_count_;
    const std::size_t cnt = t.hi - t.lo;
    gpusim::DeviceEngine::WorkFn work;
    if (numeric) {
      // Snapshot the source range at issue time. When the payload was
      // produced by earlier receives, drive the source device past
      // every producer's marker event first. Event-based (not a
      // time-based advance): an op can complete later than the link
      // schedule says — a fallback lane serializes receives behind the
      // default-stream barrier — and the snapshot must chase the
      // functors, wherever they land.
      for (std::int32_t dep : t.src_deps) {
        advance_until_event(fleet_->device(t.src).device(),
                            marker[static_cast<std::size_t>(dep)]);
      }
      float* src = flat[static_cast<std::size_t>(t.src)] + t.lo;
      float* dst = flat[static_cast<std::size_t>(t.dst)] + t.lo;
      if (fp16) {
        if (!t.accumulate) {
          // First (and idempotently every) all-gather send of a reduced
          // range: quantize the source in place so the sender's replica
          // matches what every receiver reconstructs from the wire.
          for (std::size_t k = 0; k < cnt; ++k) src[k] = quantize_fp16(src[k]);
        }
        std::uint16_t* staged = stage_f16(cnt);
        for (std::size_t k = 0; k < cnt; ++k)
          staged[k] = float32_to_float16(src[k]);
        if (t.accumulate) {
          work = [dst, staged, cnt] {
            for (std::size_t k = 0; k < cnt; ++k)
              dst[k] += float16_to_float32(staged[k]);
          };
        } else {
          work = [dst, staged, cnt] {
            for (std::size_t k = 0; k < cnt; ++k)
              dst[k] = float16_to_float32(staged[k]);
          };
        }
      } else {
        float* staged = stage_f32(cnt);
        std::memcpy(staged, src, cnt * sizeof(float));
        if (t.accumulate) {
          work = [dst, staged, cnt] {
            for (std::size_t k = 0; k < cnt; ++k) dst[k] += staged[k];
          };
        } else {
          work = [dst, staged, cnt] {
            std::memcpy(dst, staged, cnt * sizeof(float));
          };
        }
      }
    }
    gpusim::DeviceEngine& dst_dev = fleet_->device(t.dst).device();
    const gpusim::StreamId stream = lane_stream(t.dst, lane);
    dst_dev.memcpy_peer(stream, cnt * eb, t.src, rec->start_ns, rec->end_ns,
                        std::move(work));
    // Marker right behind the receive in the lane's FIFO: it completes
    // when the receive's functor has actually run, which is what later
    // snapshots (and the caller's unpack) gate on.
    marker[oi] = dst_dev.record_event_at(stream, rec->end_ns);
    Last& L = last[static_cast<std::size_t>(t.dst * lane_count_ + lane)];
    if (rec->end_ns > L.end_ns) {
      L.end_ns = rec->end_ns;
      L.marker = marker[oi];
    }
  }

  // Per-device done event: join the last marker of every lane the
  // device received on (lanes complete independently; the unpack must
  // wait for all of them).
  for (int d = 0; d < n; ++d) {
    int used = 0;
    int only_lane = -1;
    gpusim::SimTime max_end = 0.0;
    for (int l = 0; l < lane_count_; ++l) {
      const Last& L = last[static_cast<std::size_t>(d * lane_count_ + l)];
      if (L.marker == kNoMarker) continue;
      ++used;
      only_lane = l;
      max_end = std::max(max_end, L.end_ns);
    }
    if (used == 0) {
      done[static_cast<std::size_t>(d)] = idle_done(d);
    } else if (used == 1) {
      done[static_cast<std::size_t>(d)] =
          last[static_cast<std::size_t>(d * lane_count_ + only_lane)].marker;
    } else {
      gpusim::DeviceEngine& dev = fleet_->device(d).device();
      const gpusim::StreamId join = lane_stream(d, 0);
      for (int l = 0; l < lane_count_; ++l) {
        const Last& L = last[static_cast<std::size_t>(d * lane_count_ + l)];
        if (L.marker == kNoMarker) continue;
        dev.wait_event(join, L.marker);
      }
      done[static_cast<std::size_t>(d)] = dev.record_event_at(join, max_end);
    }
  }

  transfers_.insert(transfers_.end(), std::make_move_iterator(recs.begin()),
                    std::make_move_iterator(recs.end()));
  return done;
}

}  // namespace comm
