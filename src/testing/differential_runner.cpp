#include "testing/differential_runner.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

#include "core/glp4nn.hpp"
#include "kernels/dispatch.hpp"
#include "minicaffe/net.hpp"
#include "minicaffe/net_dag.hpp"
#include "minicaffe/solver.hpp"
#include "simcuda/context.hpp"

namespace glpfuzz {

namespace {

/// Bit-pattern equality: distinguishes -0.0f from 0.0f and treats equal
/// NaN payloads as equal — exactly "the same training run".
bool same_bits(float a, float b) {
  std::uint32_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

/// Bit-pattern equality for simulated timestamps: the engine-equivalence
/// contract is *exact*, not "close" — an ulp of drift means the optimized
/// loop changed the arithmetic.
bool same_bits64(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool same_config(const gpusim::LaunchConfig& a, const gpusim::LaunchConfig& b) {
  return a.grid == b.grid && a.block == b.block &&
         a.regs_per_thread == b.regs_per_thread &&
         a.smem_static_bytes == b.smem_static_bytes &&
         a.smem_dynamic_bytes == b.smem_dynamic_bytes;
}

struct RunOutput {
  std::vector<float> losses;
  std::vector<float> params;
};

RunOutput train(mc::ExecContext& ec, const FuzzCase& c) {
  RunOutput out;
  mc::Net net(c.net, ec);
  mc::SgdSolver solver(net, {});
  solver.step(c.iters,
              [&](int, float loss) { out.losses.push_back(loss); });
  ec.ctx->device().synchronize();
  for (const auto& p : net.learnable_params()) {
    const float* d = p->data();
    out.params.insert(out.params.end(), d, d + p->count());
  }
  return out;
}

}  // namespace

bool bit_exact_contract(const mc::NetSpec& /*net*/,
                        const glp4nn::SchedulerOptions& /*options*/) {
  return true;
}

DiffResult run_differential(const FuzzCase& c, const DiffOptions& opts) {
  DiffResult r;

  // --- serial baseline (always fault-free) ------------------------------
  RunOutput serial;
  {
    scuda::Context ctx(c.device);
    kern::SerialDispatcher dispatcher(ctx);
    mc::ExecContext ec;
    ec.ctx = &ctx;
    ec.dispatcher = &dispatcher;
    serial = train(ec, c);
  }

  // --- GLP4NN run -------------------------------------------------------
  RunOutput glp;
  {
    scuda::Context ctx(c.device);
    scuda::FaultConfig faults = opts.faults;
    if (faults.launch_failure_rate > 0.0 ||
        faults.stream_create_failure_rate > 0.0 ||
        faults.capture_loss_rate > 0.0) {
      // Decorrelate fault draw sequences across cases.
      faults.seed ^= c.seed * 0x9e3779b97f4a7c15ULL;
      ctx.faults().arm(faults);
    }
    if (opts.check_timeline) ctx.device().timeline().set_enabled(true);

    glp4nn::Glp4nnEngine engine(c.options);
    mc::ExecContext ec;
    ec.ctx = &ctx;
    ec.dispatcher = &engine.scheduler_for(ctx);
    glp = train(ec, c);

    r.launch_faults = ctx.faults().launch_faults();
    r.stream_faults = ctx.faults().stream_create_faults();
    r.capture_drops = ctx.faults().capture_records_dropped();
    r.serial_fallback_scopes =
        engine.scheduler_for(ctx).serial_fallback_count();
    if (opts.check_timeline) {
      r.races = check_timeline(ctx.device().timeline(), c.device);
    }
  }

  r.serial_losses = serial.losses;
  r.glp_losses = glp.losses;

  auto fail = [&](const std::string& what) {
    if (r.ok) {
      r.ok = false;
      r.failure = what;
    }
  };

  // --- compare ----------------------------------------------------------
  if (serial.losses.size() != glp.losses.size() ||
      serial.params.size() != glp.params.size()) {
    std::ostringstream os;
    os << "shape mismatch: " << serial.losses.size() << "/"
       << glp.losses.size() << " losses, " << serial.params.size() << "/"
       << glp.params.size() << " params";
    fail(os.str());
    return r;
  }
  r.params_compared = serial.params.size();

  bool bits_match = true;
  for (std::size_t i = 0; i < serial.losses.size(); ++i) {
    const double diff =
        std::abs(static_cast<double>(serial.losses[i]) - glp.losses[i]);
    if (diff == diff) r.max_loss_diff = std::max(r.max_loss_diff, diff);
    bits_match = bits_match && same_bits(serial.losses[i], glp.losses[i]);
  }
  for (std::size_t i = 0; i < serial.params.size(); ++i) {
    const double diff =
        std::abs(static_cast<double>(serial.params[i]) - glp.params[i]);
    if (diff == diff) r.max_param_diff = std::max(r.max_param_diff, diff);
    bits_match = bits_match && same_bits(serial.params[i], glp.params[i]);
  }
  if (!bits_match) {
    std::ostringstream os;
    os << "bit-exact contract violated (max param diff " << r.max_param_diff
       << ", max loss diff " << r.max_loss_diff << ")";
    fail(os.str());
  }
  if (!r.races.clean()) {
    std::ostringstream os;
    os << r.races.violations.size() << " timeline ordering violation(s); first: "
       << "[" << kind_name(r.races.violations.front().kind) << "] "
       << r.races.violations.front().detail;
    fail(os.str());
  }
  return r;
}

std::string compare_timelines(const gpusim::Timeline& a,
                              const gpusim::Timeline& b) {
  std::ostringstream os;
  if (a.kernels().size() != b.kernels().size()) {
    os << "kernel record count " << a.kernels().size() << " vs "
       << b.kernels().size();
    return os.str();
  }
  if (a.copies().size() != b.copies().size()) {
    os << "copy record count " << a.copies().size() << " vs "
       << b.copies().size();
    return os.str();
  }
  for (std::size_t i = 0; i < a.kernels().size(); ++i) {
    const gpusim::KernelRecord& ka = a.kernels()[i];
    const gpusim::KernelRecord& kb = b.kernels()[i];
    const char* field = nullptr;
    if (ka.correlation_id != kb.correlation_id) field = "correlation";
    else if (ka.name != kb.name) field = "name";
    else if (ka.stream != kb.stream) field = "stream";
    else if (!same_config(ka.config, kb.config)) field = "config";
    else if (!same_bits64(ka.submit_ns, kb.submit_ns)) field = "submit_ns";
    else if (!same_bits64(ka.start_ns, kb.start_ns)) field = "start_ns";
    else if (!same_bits64(ka.end_ns, kb.end_ns)) field = "end_ns";
    else if (ka.tenant != kb.tenant) field = "tenant";
    if (field != nullptr) {
      os << "kernel record " << i << " (" << ka.name << " vs " << kb.name
         << ") differs in " << field << " (e.g. end_ns " << ka.end_ns
         << " vs " << kb.end_ns << ")";
      return os.str();
    }
  }
  for (std::size_t i = 0; i < a.copies().size(); ++i) {
    const gpusim::CopyRecord& ca = a.copies()[i];
    const gpusim::CopyRecord& cb = b.copies()[i];
    const char* field = nullptr;
    if (ca.correlation_id != cb.correlation_id) field = "correlation";
    else if (ca.stream != cb.stream) field = "stream";
    else if (ca.bytes != cb.bytes) field = "bytes";
    else if (ca.host_to_device != cb.host_to_device) field = "direction";
    else if (!same_bits64(ca.start_ns, cb.start_ns)) field = "start_ns";
    else if (!same_bits64(ca.end_ns, cb.end_ns)) field = "end_ns";
    else if (ca.tenant != cb.tenant) field = "tenant";
    if (field != nullptr) {
      os << "copy record " << i << " differs in " << field << " (start "
         << ca.start_ns << " vs " << cb.start_ns << ", end " << ca.end_ns
         << " vs " << cb.end_ns << ")";
      return os.str();
    }
  }
  return "";
}

EngineDiffResult run_engine_differential(const FuzzCase& c,
                                         const DiffOptions& opts) {
  EngineDiffResult r;
  r.iters = static_cast<std::size_t>(c.iters);

  RunOutput out[2];
  gpusim::Timeline timelines[2];
  const gpusim::EngineKind kinds[2] = {gpusim::EngineKind::kOptimized,
                                       gpusim::EngineKind::kReference};
  for (int run = 0; run < 2; ++run) {
    scuda::Context ctx(c.device, kinds[run]);
    scuda::FaultConfig faults = opts.faults;
    if (faults.launch_failure_rate > 0.0 ||
        faults.stream_create_failure_rate > 0.0 ||
        faults.capture_loss_rate > 0.0) {
      // Same derived seed for both runs: the fault draw sequence is part
      // of the program being compared, so it must be identical.
      faults.seed ^= c.seed * 0x9e3779b97f4a7c15ULL;
      ctx.faults().arm(faults);
    }
    ctx.device().timeline().set_enabled(true);

    // Pin the per-scope profiling/analysis charge: the default charges
    // *measured* wall time to the simulated host clock, which would make
    // the two timelines differ for reasons unrelated to the engines.
    glp4nn::SchedulerOptions options = c.options;
    options.overhead_charge_ms = 0.05;
    glp4nn::Glp4nnEngine engine(options);
    mc::ExecContext ec;
    ec.ctx = &ctx;
    ec.dispatcher = &engine.scheduler_for(ctx);
    ec.dag_schedule = opts.dag_schedule;
    out[run] = train(ec, c);
    timelines[run] = ctx.device().timeline();
  }

  const auto fail = [&](const std::string& why) {
    if (r.ok) {
      r.ok = false;
      r.failure = why;
    }
  };

  if (out[0].losses.size() != out[1].losses.size() ||
      out[0].params.size() != out[1].params.size()) {
    std::ostringstream os;
    os << "shape mismatch: " << out[0].losses.size() << "/"
       << out[1].losses.size() << " losses, " << out[0].params.size() << "/"
       << out[1].params.size() << " params";
    fail(os.str());
    return r;
  }
  for (std::size_t i = 0; i < out[0].losses.size(); ++i) {
    if (!same_bits(out[0].losses[i], out[1].losses[i])) {
      std::ostringstream os;
      os << "loss bits differ at iter " << i << ": optimized="
         << out[0].losses[i] << " reference=" << out[1].losses[i];
      fail(os.str());
      return r;
    }
  }
  for (std::size_t i = 0; i < out[0].params.size(); ++i) {
    if (!same_bits(out[0].params[i], out[1].params[i])) {
      std::ostringstream os;
      os << "parameter bits differ at index " << i << ": optimized="
         << out[0].params[i] << " reference=" << out[1].params[i];
      fail(os.str());
      return r;
    }
  }

  const std::string timeline_diff =
      compare_timelines(timelines[0], timelines[1]);
  if (!timeline_diff.empty()) {
    fail("timeline mismatch (optimized vs reference): " + timeline_diff);
  }
  r.kernels_compared = timelines[0].kernels().size();
  r.copies_compared = timelines[0].copies().size();
  return r;
}

namespace {

std::vector<ScheduledOp> to_checker_ops(
    const std::vector<mc::NetDag::ScheduledOp>& in) {
  std::vector<ScheduledOp> out;
  out.reserve(in.size());
  for (const mc::NetDag::ScheduledOp& op : in) {
    out.push_back(ScheduledOp{op.prefix, op.stream, op.deps});
  }
  return out;
}

}  // namespace

DagDiffResult run_dag_differential(const FuzzCase& c, const DiffOptions& opts) {
  DagDiffResult r;

  const bool arm = opts.faults.launch_failure_rate > 0.0 ||
                   opts.faults.stream_create_failure_rate > 0.0 ||
                   opts.faults.capture_loss_rate > 0.0;

  // --- serial baseline (fault-free serial dispatch, serial issue) -------
  RunOutput serial;
  {
    scuda::Context ctx(c.device);
    kern::SerialDispatcher dispatcher(ctx);
    mc::ExecContext ec;
    ec.ctx = &ctx;
    ec.dispatcher = &dispatcher;
    serial = train(ec, c);
  }

  // --- chain-only GLP run (faults armed, DAG issue off) -----------------
  RunOutput chain;
  {
    scuda::Context ctx(c.device);
    if (arm) {
      scuda::FaultConfig faults = opts.faults;
      faults.seed ^= c.seed * 0x9e3779b97f4a7c15ULL;
      ctx.faults().arm(faults);
    }
    glp4nn::Glp4nnEngine engine(c.options);
    mc::ExecContext ec;
    ec.ctx = &ctx;
    ec.dispatcher = &engine.scheduler_for(ctx);
    chain = train(ec, c);
  }

  // --- DAG GLP run (same derived fault seed, DAG scheduling + fusion) ---
  RunOutput dag;
  {
    scuda::Context ctx(c.device);
    if (arm) {
      scuda::FaultConfig faults = opts.faults;
      faults.seed ^= c.seed * 0x9e3779b97f4a7c15ULL;
      ctx.faults().arm(faults);
    }
    if (opts.check_timeline) ctx.device().timeline().set_enabled(true);

    glp4nn::Glp4nnEngine engine(c.options);
    mc::ExecContext ec;
    ec.ctx = &ctx;
    ec.dispatcher = &engine.scheduler_for(ctx);
    ec.dag_schedule = true;

    mc::Net net(c.net, ec);
    mc::SgdSolver solver(net, {});
    solver.step(c.iters,
                [&](int, float loss) { dag.losses.push_back(loss); });
    ctx.device().synchronize();
    for (const auto& p : net.learnable_params()) {
      const float* d = p->data();
      dag.params.insert(dag.params.end(), d, d + p->count());
    }

    r.launch_faults = ctx.faults().launch_faults();
    r.stream_faults = ctx.faults().stream_create_faults();
    r.serial_fallback_scopes =
        engine.scheduler_for(ctx).serial_fallback_count();

    const std::vector<mc::NetDag::Op>& fops = net.dag()->forward_ops();
    for (std::size_t i = 0; i < fops.size(); ++i) {
      if (fops[i].absorbed) ++r.relu_epilogues;
      if (fops[i].fused_head == static_cast<int>(i)) ++r.fused_chains;
    }

    if (opts.check_timeline) {
      r.races = check_timeline(ctx.device().timeline(), c.device);
      // Replay one clean pass at a time on an emptied timeline: spans from
      // different training iterations would otherwise aggregate, and every
      // edge whose consumer ran in iteration 0 before the producer's last
      // iteration ended would look violated.
      gpusim::Timeline& tl = ctx.device().timeline();
      tl.clear();
      net.forward();
      ctx.device().synchronize();
      r.forward_schedule =
          check_op_schedule(tl, to_checker_ops(net.dag()->forward_schedule()));
      tl.clear();
      net.backward();
      ctx.device().synchronize();
      r.backward_schedule =
          check_op_schedule(tl, to_checker_ops(net.dag()->backward_schedule()));
    }
  }

  r.serial_losses = serial.losses;
  r.chain_losses = chain.losses;
  r.dag_losses = dag.losses;

  auto fail = [&](const std::string& what) {
    if (r.ok) {
      r.ok = false;
      r.failure = what;
    }
  };

  if (serial.losses.size() != dag.losses.size() ||
      chain.losses.size() != dag.losses.size() ||
      serial.params.size() != dag.params.size() ||
      chain.params.size() != dag.params.size()) {
    std::ostringstream os;
    os << "shape mismatch: losses " << serial.losses.size() << "/"
       << chain.losses.size() << "/" << dag.losses.size() << ", params "
       << serial.params.size() << "/" << chain.params.size() << "/"
       << dag.params.size();
    fail(os.str());
    return r;
  }

  auto compare = [&](const RunOutput& base, const char* label,
                     double& max_param_diff) {
    bool bits = true;
    for (std::size_t i = 0; i < base.losses.size(); ++i) {
      bits = bits && same_bits(base.losses[i], dag.losses[i]);
    }
    for (std::size_t i = 0; i < base.params.size(); ++i) {
      const double diff =
          std::abs(static_cast<double>(base.params[i]) - dag.params[i]);
      if (diff == diff) max_param_diff = std::max(max_param_diff, diff);
      bits = bits && same_bits(base.params[i], dag.params[i]);
    }
    if (!bits) {
      std::ostringstream os;
      os << "bit-exact contract violated vs " << label << " (max param diff "
         << max_param_diff << ")";
      fail(os.str());
    }
  };
  compare(serial, "serial", r.max_param_diff_serial);
  compare(chain, "chain-only", r.max_param_diff_chain);

  if (!r.races.clean()) {
    std::ostringstream os;
    os << r.races.violations.size()
       << " timeline ordering violation(s); first: ["
       << kind_name(r.races.violations.front().kind) << "] "
       << r.races.violations.front().detail;
    fail(os.str());
  }
  if (!r.forward_schedule.clean()) {
    fail("forward op-schedule violated: " +
         r.forward_schedule.violations.front().detail);
  }
  if (!r.backward_schedule.clean()) {
    fail("backward op-schedule violated: " +
         r.backward_schedule.violations.front().detail);
  }
  return r;
}

}  // namespace glpfuzz
