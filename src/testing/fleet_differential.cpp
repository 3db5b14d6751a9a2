#include "testing/fleet_differential.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>

#include "comm/data_parallel.hpp"
#include "common/check.hpp"
#include "core/glp4nn.hpp"
#include "minicaffe/net.hpp"
#include "minicaffe/solver.hpp"
#include "simcuda/fleet.hpp"

namespace glpfuzz {

namespace {

bool same_bits(float a, float b) {
  std::uint32_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

struct RunOutput {
  std::vector<float> losses;
  std::vector<float> params;
};

/// The single-device reference: each fleet iteration is N sequential
/// micro-batch passes whose captured gradients are combined with the
/// selected collective's exact wave program (the same one the fleet
/// schedules — same algorithm, pipelining split, wire format), scaled
/// by 1/N, scattered back and consumed by ONE solver update.
/// Fault-free by construction.
RunOutput reference_train(const FuzzCase& c, const FleetDiffOptions& opts) {
  const int n = opts.devices;
  const std::size_t bucket_bytes = opts.bucket_bytes;
  RunOutput out;
  scuda::Context ctx(c.device);
  glp4nn::Glp4nnEngine engine(c.options);
  mc::ExecContext ec;
  ec.ctx = &ctx;
  ec.dispatcher = &engine.scheduler_for(ctx);
  mc::Net net(c.net, ec);
  mc::SgdSolver solver(net, {});
  const comm::BucketPlan plan = comm::plan_buckets(net, bucket_bytes);
  const auto nn = static_cast<std::size_t>(n);
  const float inv_n = 1.0f / static_cast<float>(n);

  // Mirror the fleet's link properties so plan_collective resolves kAuto
  // (and the pipelining split) to the exact program the fleet runs.
  const gpusim::LinkProps props =
      opts.topology == gpusim::LinkTopology::kNvlinkRing
          ? gpusim::LinkProps::nvlink()
          : gpusim::LinkProps::pcie();
  // One plan per bucket size: buckets share counts often, so memoize.
  std::map<std::size_t, comm::CollectiveProgram> programs;
  auto program_for = [&](std::size_t count) -> const comm::CollectiveProgram& {
    auto it = programs.find(count);
    if (it == programs.end()) {
      it = programs
               .emplace(count, comm::plan_collective(n, opts.topology, props,
                                                     opts.collective, count))
               .first;
    }
    return it->second;
  };

  // grads[b][r]: micro-batch r's packed gradient for bucket b.
  std::vector<std::vector<std::vector<float>>> grads(plan.buckets.size());
  for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
    grads[b].assign(nn, std::vector<float>(plan.buckets[b].count, 0.0f));
  }

  for (int it = 0; it < c.iters; ++it) {
    const float lr = solver.current_lr();
    float loss = 0.0f;
    for (std::size_t r = 0; r < nn; ++r) {
      net.zero_param_diffs();
      net.forward();
      net.backward();
      loss += net.total_loss();  // synchronizes the device
      for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
        std::size_t off = 0;
        for (const std::size_t pi : plan.buckets[b].params) {
          const mc::Blob& p = *net.learnable_params()[pi];
          std::memcpy(grads[b][r].data() + off, p.diff(),
                      p.count() * sizeof(float));
          off += p.count();
        }
      }
    }
    loss *= inv_n;

    std::vector<float*> ptrs(nn);
    for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
      for (std::size_t r = 0; r < nn; ++r) ptrs[r] = grads[b][r].data();
      comm::reference_collective_allreduce(program_for(plan.buckets[b].count),
                                           ptrs, plan.buckets[b].count,
                                           opts.collective.wire);
      std::size_t off = 0;
      for (const std::size_t pi : plan.buckets[b].params) {
        mc::Blob& p = *net.learnable_params()[pi];
        float* diff = p.mutable_diff();
        for (std::size_t k = 0; k < p.count(); ++k) {
          diff[k] = grads[b][0][off + k] * inv_n;
        }
        off += p.count();
      }
    }
    solver.apply_update(lr);
    ctx.device().synchronize();
    solver.note_step(loss);
    out.losses.push_back(loss);
  }

  ctx.device().synchronize();
  for (const auto& p : net.learnable_params()) {
    const float* d = p->data();
    out.params.insert(out.params.end(), d, d + p->count());
  }
  return out;
}

void merge_transfer_report(FleetTransferReport& into,
                           const FleetTransferReport& from) {
  into.violations.insert(into.violations.end(), from.violations.begin(),
                         from.violations.end());
  into.transfers_checked += from.transfers_checked;
  into.peak_channel_rate =
      std::max(into.peak_channel_rate, from.peak_channel_rate);
  into.channels_used = std::max(into.channels_used, from.channels_used);
}

}  // namespace

mc::NetSpec strip_dropout(const mc::NetSpec& spec) {
  mc::NetSpec out;
  out.name = spec.name;
  // top name → what it resolves to once its producer is dropped.
  std::map<std::string, std::string> alias;
  auto resolve = [&](const std::string& name) {
    auto it = alias.find(name);
    return it == alias.end() ? name : it->second;
  };
  for (const mc::LayerSpec& l : spec.layers) {
    if (l.type == "Dropout") {
      // In-place dropout (top == bottom) vanishes without a trace; the
      // out-of-place form forwards its bottom under the top's name.
      if (!l.tops.empty() && !l.bottoms.empty() &&
          l.tops.front() != l.bottoms.front()) {
        alias[l.tops.front()] = resolve(l.bottoms.front());
      }
      continue;
    }
    mc::LayerSpec kept = l;
    for (std::string& b : kept.bottoms) b = resolve(b);
    out.layers.push_back(std::move(kept));
  }
  return out;
}

FuzzCase make_fleet_case(std::uint64_t seed, const NetGenOptions& gen) {
  FuzzCase c = make_case(seed, gen);
  c.net = strip_dropout(c.net);
  return c;
}

FleetDiffResult run_fleet_differential(const FuzzCase& c,
                                       const FleetDiffOptions& opts) {
  FleetDiffResult r;
  const int n = opts.devices;
  GLP_REQUIRE(n >= 1, "fleet differential needs at least one device");

  const RunOutput single = reference_train(c, opts);

  // --- fleet run --------------------------------------------------------
  scuda::FleetOptions fopts;
  fopts.topology = opts.topology;
  fopts.link = opts.topology == gpusim::LinkTopology::kNvlinkRing
                   ? gpusim::LinkProps::nvlink()
                   : gpusim::LinkProps::pcie();
  fopts.engine = opts.engine;
  scuda::Fleet fleet = scuda::Fleet::homogeneous(n, c.device, fopts);

  const bool arm = opts.faults.launch_failure_rate > 0.0 ||
                   opts.faults.stream_create_failure_rate > 0.0 ||
                   opts.faults.capture_loss_rate > 0.0;
  std::vector<std::unique_ptr<glp4nn::Glp4nnEngine>> engines;
  std::vector<std::unique_ptr<mc::ExecContext>> ecs;
  std::vector<mc::ExecContext*> ec_ptrs;
  for (int d = 0; d < n; ++d) {
    scuda::Context& ctx = fleet.device(d);
    if (arm) {
      scuda::FaultConfig faults = opts.faults;
      faults.seed ^= (c.seed + static_cast<std::uint64_t>(d) + 1) *
                     0x9e3779b97f4a7c15ULL;
      ctx.faults().arm(faults);
    }
    engines.push_back(std::make_unique<glp4nn::Glp4nnEngine>(c.options));
    auto ec = std::make_unique<mc::ExecContext>();
    ec->ctx = &ctx;
    ec->dispatcher = &engines.back()->scheduler_for(ctx);
    ec_ptrs.push_back(ec.get());
    ecs.push_back(std::move(ec));
  }

  comm::FleetTrainerOptions topts;
  topts.bucket_bytes = opts.bucket_bytes;
  topts.overlap = opts.overlap;
  topts.collective = opts.collective;
  comm::FleetTrainer trainer(fleet, ec_ptrs, c.net, topts);
  r.buckets = trainer.plan().buckets.size();

  trainer.step(c.iters, [&](int, float loss) {
    r.fleet_losses.push_back(loss);
    if (opts.check_transfers) {
      merge_transfer_report(
          r.transfers, check_fleet_transfers(trainer.collectives().transfers(),
                                             fleet.links().props()));
    }
  });
  fleet.synchronize_all();

  for (int d = 0; d < n; ++d) {
    r.launch_faults += fleet.device(d).faults().launch_faults();
    r.stream_faults += fleet.device(d).faults().stream_create_faults();
    if (trainer.collectives().fallback(d)) ++r.comm_fallbacks;
  }

  // --- compare ----------------------------------------------------------
  r.single_losses = single.losses;
  for (std::size_t i = 0; i < single.losses.size(); ++i) {
    if (i >= r.fleet_losses.size() ||
        !same_bits(single.losses[i], r.fleet_losses[i])) {
      std::ostringstream os;
      os << "loss diverged at iteration " << i << ": single="
         << single.losses[i] << " fleet="
         << (i < r.fleet_losses.size()
                 ? std::to_string(r.fleet_losses[i])
                 : std::string("<missing>"));
      r.ok = false;
      r.failure = os.str();
      return r;
    }
  }

  for (int d = 0; d < n; ++d) {
    std::size_t off = 0;
    for (const auto& p : trainer.net(d).learnable_params()) {
      const float* got = p->data();
      for (std::size_t k = 0; k < p->count(); ++k, ++off) {
        GLP_CHECK(off < single.params.size());
        if (!same_bits(single.params[off], got[k])) {
          std::ostringstream os;
          os << "device " << d << " param " << off << " diverged: single="
             << single.params[off] << " fleet=" << got[k];
          r.ok = false;
          r.failure = os.str();
          return r;
        }
      }
    }
    GLP_CHECK(off == single.params.size());
    r.params_compared += off;
  }

  if (opts.check_transfers && !r.transfers.clean()) {
    r.ok = false;
    r.failure = "link-contract violation:\n" + r.transfers.to_string();
  }
  return r;
}

}  // namespace glpfuzz
