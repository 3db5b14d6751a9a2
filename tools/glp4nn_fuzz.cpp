// glp4nn_fuzz — differential fuzzer for the GLP4NN runtime scheduler.
//
// Samples random (net, device, scheduler-options) cases from consecutive
// seeds, trains each under serial dispatch and under the scheduler, and
// checks the convergence-invariance contract (bit-identical losses and
// parameters) plus the stream-ordering invariants of the recorded
// timeline. Optionally arms fault injection on the scheduler run to
// exercise graceful degradation.
//
//   glp4nn_fuzz --cases 200 --seed 1
//   glp4nn_fuzz --cases 200 --seed 1 --fault-rate 0.05
//   glp4nn_fuzz --replay 1337 --trace /tmp/case1337.json
//
// Flags:
//   --cases <n>          number of cases (default 50); seeds are
//                        seed, seed+1, ..., seed+n-1
//   --seed <s>           first seed (default 1)
//   --replay <s>         run exactly one seed, verbosely
//   --fault-rate <p>     injected kernel-launch failure probability
//   --stream-fault-rate <p>   injected stream-creation failure probability
//   --capture-loss-rate <p>   injected profiler record-loss probability
//   --max-batch <n>      cap generated batch sizes (default 64)
//   --engine-compare     instead of serial-vs-scheduler, run each case on
//                        the optimized engine AND ReferenceEngine and
//                        require bit-identical losses, parameters and
//                        device timelines (the hot-path equivalence gate)
//   --dag                sample the branchy DAG corpus (inception fan-outs,
//                        diamond skips, fused elementwise chains) and run
//                        the three-way DAG differential: DAG-vs-serial AND
//                        DAG-vs-chain-only, plus an op-schedule replay of
//                        one clean forward/backward pass. Combined with
//                        --engine-compare, runs the engine-equivalence gate
//                        with DAG scheduling enabled on both engines.
//   --fleet              fleet corpus (Dropout-stripped):
//                        train each case on an N-device fleet (bucketed
//                        ring all-reduce, eager overlap, per-device GLP4NN
//                        schedulers) and on the single-device reference,
//                        and require bit-identical losses and parameters
//                        plus a clean link-contract audit of every
//                        cross-device transfer
//   --fleet-devices <n>  fleet width (default 2)
//   --links <kind>       fleet interconnect: nvlink (ring) or pcie
//                        (shared host channel); default nvlink
//   --fleet-engine <e>   engine the fleet devices run on: optimized
//                        (default) or reference — the latter doubles as
//                        a cross-engine differential over the fleet path
//   --no-overlap         fleet: serialize-then-reduce baseline instead of
//                        eager bucketed overlap
//   --collective <c>     fleet all-reduce algorithm: auto (timing-only
//                        dry run, default) | ring | tree | sample (rotate
//                        deterministically per case seed). The reference
//                        oracle replays whichever program is selected, so
//                        every algorithm is held to its own bit-exactness
//                        contract
//   --fp16-wire          fleet: fp16 gradient compression on the wire
//                        (still bit-identical to the fp16 oracle)
//   --no-branches        linear nets only
//   --no-timeline        skip timeline recording + race checking
//   --trace <file>       Chrome trace of the last failing (or replayed)
//                        case, with one marker per race violation
//   --verbose            one summary line per case
//
// Exit code: 0 when every case passes, 1 otherwise.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "core/glp4nn.hpp"
#include "gpusim/trace_export.hpp"
#include "minicaffe/solver.hpp"
#include "testing/differential_runner.hpp"
#include "testing/fleet_differential.hpp"
#include "testing/net_generator.hpp"

namespace {

[[noreturn]] void fail(const glp::Flags& flags, const std::string& error) {
  std::fprintf(stderr, "error: %s\n\n%s", error.c_str(),
               flags.usage().c_str());
  std::exit(2);
}

struct Stats {
  int passed = 0;
  int failed = 0;
  std::size_t launch_faults = 0;
  std::size_t stream_faults = 0;
  std::size_t capture_drops = 0;
  std::size_t fallback_scopes = 0;
  int peak_concurrency = 0;
  // DAG-mode accumulators.
  std::size_t relu_epilogues = 0;
  std::size_t fused_chains = 0;
  int peak_op_concurrency = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int cases = 50;
  std::uint64_t seed = 1;
  bool replay = false;
  bool verbose = false;
  std::string trace_path;
  glpfuzz::NetGenOptions gen;
  glpfuzz::DiffOptions diff;

  unsigned long long seed_arg = 1;
  std::string replay_arg;
  bool no_branches = false, no_timeline = false, engine_compare = false;
  bool dag = false;
  bool fleet = false, no_overlap = false;
  glpfuzz::FleetDiffOptions fleet_opts;
  std::string links = "nvlink";
  std::string fleet_engine = "optimized";
  std::string collective = "auto";
  bool collective_sample = false, fp16_wire = false;

  glp::Flags flags("glp4nn_fuzz",
                   "Differential fuzzer for the GLP4NN runtime scheduler "
                   "(exit 0 iff every case passes).");
  flags.opt("cases", &cases, "number of cases; seeds are seed..seed+n-1")
      .opt("seed", &seed_arg, "first seed")
      .opt("replay", &replay_arg, "run exactly this one seed, verbosely")
      .opt("fault-rate", &diff.faults.launch_failure_rate,
           "injected kernel-launch failure probability")
      .opt("stream-fault-rate", &diff.faults.stream_create_failure_rate,
           "injected stream-creation failure probability")
      .opt("capture-loss-rate", &diff.faults.capture_loss_rate,
           "injected profiler record-loss probability")
      .opt("max-batch", &gen.max_batch, "cap generated batch sizes")
      .flag("engine-compare", &engine_compare,
            "compare optimized engine vs ReferenceEngine (bit-identical "
            "losses, params and timelines) instead of serial-vs-scheduler")
      .flag("dag", &dag,
            "branchy DAG corpus + three-way DAG differential (DAG vs "
            "serial AND DAG vs chain-only, with op-schedule replay)")
      .flag("fleet", &fleet,
            "fleet corpus: N-device data-parallel training vs the "
            "single-device reference (bit-identical) + link-contract audit")
      .opt("fleet-devices", &fleet_opts.devices, "fleet width")
      .opt("links", &links, "fleet interconnect: nvlink or pcie")
      .opt("fleet-engine", &fleet_engine,
           "engine the fleet devices run on: optimized or reference "
           "(reference doubles as a cross-engine fleet differential)")
      .flag("no-overlap", &no_overlap,
            "fleet: serialize-then-reduce instead of eager bucketed overlap")
      .opt("collective", &collective,
           "fleet all-reduce: auto|ring|tree|sample (per case)")
      .flag("fp16-wire", &fp16_wire,
            "fleet: fp16 gradient compression on the wire")
      .flag("no-branches", &no_branches, "linear nets only")
      .flag("no-timeline", &no_timeline,
            "skip timeline recording + race checking")
      .opt("trace", &trace_path,
           "Chrome trace of the last failing (or replayed) case")
      .flag("verbose", &verbose, "one summary line per case");
  switch (flags.parse(argc, argv)) {
    case glp::Flags::Status::kHelp:
      return 0;
    case glp::Flags::Status::kError:
      return 2;
    case glp::Flags::Status::kOk:
      break;
  }
  seed = seed_arg;
  if (!replay_arg.empty()) {
    try {
      seed = std::stoull(replay_arg);
    } catch (const std::exception&) {
      fail(flags, "bad value '" + replay_arg + "' for --replay");
    }
    replay = true;
    cases = 1;
    verbose = true;
  }
  if (no_branches) gen.allow_branches = false;
  if (no_timeline) diff.check_timeline = false;
  if (fleet) {
    if (engine_compare || dag) fail(flags, "--fleet excludes the other modes");
    if (fleet_opts.devices < 1) fail(flags, "--fleet-devices must be >= 1");
    if (links == "nvlink") {
      fleet_opts.topology = gpusim::LinkTopology::kNvlinkRing;
    } else if (links == "pcie") {
      fleet_opts.topology = gpusim::LinkTopology::kPcieHost;
    } else {
      fail(flags, "--links must be nvlink or pcie");
    }
    if (fleet_engine == "optimized") {
      fleet_opts.engine = gpusim::EngineKind::kOptimized;
    } else if (fleet_engine == "reference") {
      fleet_opts.engine = gpusim::EngineKind::kReference;
    } else {
      fail(flags, "--fleet-engine must be optimized or reference");
    }
    fleet_opts.overlap = !no_overlap;
    fleet_opts.faults = diff.faults;
    fleet_opts.check_transfers = !no_timeline;
    if (collective == "sample") {
      collective_sample = true;
    } else if (const auto choice = comm::parse_collective(collective)) {
      fleet_opts.collective.collective = *choice;
    } else {
      fail(flags, "--collective must be auto|ring|tree|sample");
    }
    fleet_opts.collective.wire =
        fp16_wire ? comm::WireFormat::kFp16 : comm::WireFormat::kFp32;
  }
  if (dag) {
    gen.dag_corpus = true;
    // Under --engine-compare the DAG path runs inside the engine gate.
    if (engine_compare) diff.dag_schedule = true;
  }
  if (cases <= 0) fail(flags, "--cases must be positive");
  for (double rate : {diff.faults.launch_failure_rate,
                      diff.faults.stream_create_failure_rate,
                      diff.faults.capture_loss_rate}) {
    if (rate < 0.0 || rate > 1.0) {
      fail(flags, "fault rates must be probabilities in [0, 1]");
    }
  }

  Stats stats;
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t case_seed = seed + static_cast<std::uint64_t>(i);
    const glpfuzz::FuzzCase c = fleet ? glpfuzz::make_fleet_case(case_seed, gen)
                                      : glpfuzz::make_case(case_seed, gen);

    if (fleet) {
      if (collective_sample) {
        // Rotate through the choices deterministically so a failing seed
        // replays with the same algorithm via an explicit --collective.
        static const comm::CollectiveChoice kRotation[] = {
            comm::CollectiveChoice::kAuto, comm::CollectiveChoice::kRing,
            comm::CollectiveChoice::kTree};
        fleet_opts.collective.collective = kRotation[case_seed % 3];
      }
      glpfuzz::FleetDiffResult fr;
      try {
        fr = glpfuzz::run_fleet_differential(c, fleet_opts);
      } catch (const std::exception& e) {
        fr.ok = false;
        fr.failure = std::string("exception: ") + e.what();
      }
      stats.launch_faults += fr.launch_faults;
      stats.stream_faults += fr.stream_faults;
      stats.fallback_scopes += static_cast<std::size_t>(fr.comm_fallbacks);
      if (fr.ok) {
        ++stats.passed;
        if (verbose) {
          std::printf(
              "PASS %s | %d device(s), %s all-reduce%s bit-identical over "
              "%zu params, %zu bucket(s), %zu transfer(s), peak link "
              "%.1f GB/s\n",
              c.summary().c_str(), fleet_opts.devices,
              comm::to_string(fleet_opts.collective.collective),
              fp16_wire ? " (fp16 wire)" : "", fr.params_compared, fr.buckets,
              fr.transfers.transfers_checked, fr.transfers.peak_channel_rate);
        }
      } else {
        ++stats.failed;
        std::printf("FAIL %s\n     %s\n", c.summary().c_str(),
                    fr.failure.c_str());
        std::printf("     replay: %s --replay %llu --fleet --fleet-devices "
                    "%d --links %s --fleet-engine %s --collective %s%s%s\n",
                    argv[0], static_cast<unsigned long long>(case_seed),
                    fleet_opts.devices, links.c_str(), fleet_engine.c_str(),
                    comm::to_string(fleet_opts.collective.collective),
                    fp16_wire ? " --fp16-wire" : "",
                    no_overlap ? " --no-overlap" : "");
      }
      continue;
    }

    if (engine_compare) {
      glpfuzz::EngineDiffResult er;
      try {
        er = glpfuzz::run_engine_differential(c, diff);
      } catch (const std::exception& e) {
        er.ok = false;
        er.failure = std::string("exception: ") + e.what();
      }
      if (er.ok) {
        ++stats.passed;
        if (verbose) {
          std::printf("PASS %s | engines bit-identical over %zu kernels, "
                      "%zu copies\n",
                      c.summary().c_str(), er.kernels_compared,
                      er.copies_compared);
        }
      } else {
        ++stats.failed;
        std::printf("FAIL %s\n     %s\n", c.summary().c_str(),
                    er.failure.c_str());
        std::printf("     replay: %s --replay %llu --engine-compare%s\n",
                    argv[0], static_cast<unsigned long long>(case_seed),
                    dag ? " --dag" : "");
      }
      continue;
    }

    if (dag) {
      glpfuzz::DagDiffResult dr;
      try {
        dr = glpfuzz::run_dag_differential(c, diff);
      } catch (const std::exception& e) {
        dr.ok = false;
        dr.failure = std::string("exception: ") + e.what();
      }

      stats.launch_faults += dr.launch_faults;
      stats.stream_faults += dr.stream_faults;
      stats.fallback_scopes += dr.serial_fallback_scopes;
      stats.relu_epilogues += dr.relu_epilogues;
      stats.fused_chains += dr.fused_chains;
      stats.peak_concurrency =
          std::max(stats.peak_concurrency, dr.races.peak_concurrency);
      stats.peak_op_concurrency =
          std::max({stats.peak_op_concurrency,
                    dr.forward_schedule.peak_op_concurrency,
                    dr.backward_schedule.peak_op_concurrency});

      if (dr.ok) {
        ++stats.passed;
        if (verbose) {
          std::printf(
              "PASS %s | bit-exact, fused %zu chain(s) + %zu epilogue(s), "
              "op-concurrency fwd=%d bwd=%d, %zu+%zu edges\n",
              c.summary().c_str(), dr.fused_chains, dr.relu_epilogues,
              dr.forward_schedule.peak_op_concurrency,
              dr.backward_schedule.peak_op_concurrency,
              dr.forward_schedule.edges_checked,
              dr.backward_schedule.edges_checked);
        }
      } else {
        ++stats.failed;
        std::printf("FAIL %s\n     %s\n", c.summary().c_str(),
                    dr.failure.c_str());
        if (!dr.races.clean()) std::fputs(dr.races.to_string().c_str(), stdout);
        if (!dr.forward_schedule.clean()) {
          std::fputs(dr.forward_schedule.to_string().c_str(), stdout);
        }
        if (!dr.backward_schedule.clean()) {
          std::fputs(dr.backward_schedule.to_string().c_str(), stdout);
        }
        std::printf("     replay: %s --replay %llu --dag\n", argv[0],
                    static_cast<unsigned long long>(case_seed));
      }

      // Trace dump of the DAG-scheduled run (same shape as the serial
      // branch below, with ec.dag_schedule on).
      if (!trace_path.empty() && (replay || !dr.ok)) {
        const glpfuzz::FuzzCase again = glpfuzz::make_case(case_seed, gen);
        scuda::Context ctx(again.device);
        ctx.device().timeline().set_enabled(true);
        glp4nn::Glp4nnEngine engine(again.options);
        mc::ExecContext ec;
        ec.ctx = &ctx;
        ec.dispatcher = &engine.scheduler_for(ctx);
        ec.dag_schedule = true;
        mc::Net net(again.net, ec);
        mc::SgdSolver solver(net, {});
        solver.step(again.iters);
        ctx.device().synchronize();
        const glpfuzz::RaceReport report =
            glpfuzz::check_timeline(ctx.device().timeline(), again.device);
        gpusim::write_chrome_trace(ctx.device().timeline(),
                                   glpfuzz::violation_markers(report),
                                   trace_path);
        std::printf("     trace written to %s\n", trace_path.c_str());
      }
      continue;
    }

    glpfuzz::DiffResult r;
    std::string error;
    try {
      r = glpfuzz::run_differential(c, diff);
    } catch (const std::exception& e) {
      r.ok = false;
      r.failure = std::string("exception: ") + e.what();
    }

    stats.launch_faults += r.launch_faults;
    stats.stream_faults += r.stream_faults;
    stats.capture_drops += r.capture_drops;
    stats.fallback_scopes += r.serial_fallback_scopes;
    stats.peak_concurrency =
        std::max(stats.peak_concurrency, r.races.peak_concurrency);

    if (r.ok) {
      ++stats.passed;
      if (verbose) {
        std::printf("PASS %s | bit-exact, %zu ops, peak C=%d\n",
                    c.summary().c_str(), r.races.ops_checked,
                    r.races.peak_concurrency);
      }
    } else {
      ++stats.failed;
      std::printf("FAIL %s\n     %s\n", c.summary().c_str(),
                  r.failure.c_str());
      if (!r.races.clean()) {
        std::fputs(r.races.to_string().c_str(), stdout);
      }
      std::printf("     replay: %s --replay %llu\n", argv[0],
                  static_cast<unsigned long long>(case_seed));
    }

    // On request, dump a trace of the replayed (or any failing) case with
    // race-violation markers for chrome://tracing triage.
    if (!trace_path.empty() && (replay || !r.ok)) {
      const glpfuzz::FuzzCase again = glpfuzz::make_case(case_seed, gen);
      scuda::Context ctx(again.device);
      ctx.device().timeline().set_enabled(true);
      glp4nn::Glp4nnEngine engine(again.options);
      mc::ExecContext ec;
      ec.ctx = &ctx;
      ec.dispatcher = &engine.scheduler_for(ctx);
      mc::Net net(again.net, ec);
      mc::SgdSolver solver(net, {});
      solver.step(again.iters);
      ctx.device().synchronize();
      const glpfuzz::RaceReport report =
          glpfuzz::check_timeline(ctx.device().timeline(), again.device);
      gpusim::write_chrome_trace(ctx.device().timeline(),
                                 glpfuzz::violation_markers(report),
                                 trace_path);
      std::printf("     trace written to %s\n", trace_path.c_str());
    }
  }

  std::printf("\n%d/%d cases passed\n", stats.passed, cases);
  if (stats.launch_faults + stats.stream_faults + stats.capture_drops > 0) {
    std::printf(
        "faults injected: %zu launch, %zu stream-create, %zu capture drops; "
        "%zu scope(s) degraded to serial\n",
        stats.launch_faults, stats.stream_faults, stats.capture_drops,
        stats.fallback_scopes);
  }
  if (dag && !engine_compare) {
    std::printf(
        "dag: %zu coalesced chain(s), %zu ReLU epilogue(s), peak op "
        "concurrency %d\n",
        stats.fused_chains, stats.relu_epilogues, stats.peak_op_concurrency);
  }
  return stats.failed == 0 ? 0 : 1;
}
