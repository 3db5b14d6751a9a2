// Serving benchmark: latency/throughput/SLO-attainment vs. offered load
// for the inference serving subsystem. Two sweeps:
//
//   * windowed sweep (v1 parity, no deadlines): scheduler-vs-serial
//     dispatch and dynamic-batcher on/off over 1k-16k req/s — the
//     baseline comparison the PR-3 floor checks read;
//   * continuous sweep (the fleet hot path): continuous batching + lane
//     coalescing with a 5 ms SLO, swept up to 120k offered req/s with
//     per-tenant SLO attainment reported.
//
// Writes the committed BENCH_serving.json baseline (schema
// glp4nn-bench-serving-v2, documented in docs/SERVING.md).
//
// Usage: bench_serving [--quick] [--out FILE] [--requests N]
//
// Replays are timing-only (the numerics are covered by the serving
// differential corpus); all latencies are *simulated* device/host times,
// so the baseline is stable across machines and CI runs.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "gpusim/device_props.hpp"
#include "serving/model_zoo.hpp"
#include "serving/server.hpp"

namespace {

struct ServingRecord {
  std::string mode;  ///< "glp4nn" or "serial"
  std::string mix;   ///< tenant model mix, e.g. "tiny_cnn+small_cnn"
  bool batcher = true;
  serving::BatchMode batch_mode = serving::BatchMode::kWindowed;
  bool coalesce = false;
  double rate_rps = 0.0;
  double deadline_ms = 0.0;
  serving::ServingStats stats;
};

serving::ServingStats replay_once(const gpusim::DeviceProps& props,
                                  const std::vector<serving::TenantModel>& models,
                                  const serving::TraceSpec& ts,
                                  const ServingRecord& cfg) {
  scuda::Context ctx(props);
  serving::ServerOptions opts;
  opts.use_scheduler = cfg.mode == "glp4nn";
  opts.batch.mode = cfg.batch_mode;
  opts.coalesce_lanes = cfg.coalesce;
  if (cfg.batch_mode == serving::BatchMode::kContinuous) {
    opts.batch.max_batch = 64;   // backlog-sized cuts at high offered load
    opts.queue_capacity = 512;   // per tenant shard
  } else {
    opts.queue_capacity = 256;
  }
  if (!cfg.batcher) {
    // Batcher off: every request is its own batch, cut immediately.
    opts.batch.mode = serving::BatchMode::kContinuous;
    opts.batch.max_batch = 1;
  }
  opts.mode = kern::ComputeMode::kTimingOnly;
  serving::InferenceServer server(ctx, models, opts);
  std::vector<std::size_t> sizes;
  for (int t = 0; t < server.tenants(); ++t) {
    sizes.push_back(server.session(t).sample_input_size());
  }
  return serving::InferenceServer::summarize(
      server.replay(serving::make_trace(ts, sizes)));
}

void write_json(const std::string& path,
                const std::vector<ServingRecord>& records, int requests,
                const std::string& device) {
  std::ofstream os(path);
  GLP_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  os << "{\n"
     << "  \"schema\": \"glp4nn-bench-serving-v2\",\n"
     << bench::provenance_json(device)
     << "  \"device\": \"" << device << "\",\n"
     << "  \"models\": [\"tiny_cnn+small_cnn\", \"tiny_cnn+mlp\"],\n"
     << "  \"arrival\": \"poisson\",\n"
     << "  \"requests\": " << requests << ",\n"
     << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ServingRecord& r = records[i];
    const serving::ServingStats& s = r.stats;
    os << "    {\"mode\": \"" << r.mode << "\", \"models\": \"" << r.mix
       << "\", \"batcher\": "
       << (r.batcher ? "true" : "false") << ", \"batch_mode\": \""
       << serving::batch_mode_name(r.batch_mode) << "\", \"coalesce\": "
       << (r.coalesce ? "true" : "false") << ", \"rate_rps\": " << r.rate_rps
       << ", \"deadline_ms\": " << r.deadline_ms
       << ", \"served\": " << s.served << ", \"rejected\": " << s.rejected
       << ", \"shed\": " << s.shed << ", \"expired\": " << s.expired
       << ", \"slo_attainment\": " << s.slo_attainment
       << ", \"p50_ms\": " << s.p50_ms
       << ", \"p95_ms\": " << s.p95_ms << ", \"p99_ms\": " << s.p99_ms
       << ", \"mean_ms\": " << s.mean_ms
       << ", \"throughput_rps\": " << s.throughput_rps
       << ", \"batches\": " << s.batches
       << ", \"mean_batch\": " << s.mean_batch << ", \"tenants\": [";
    for (std::size_t t = 0; t < s.tenants.size(); ++t) {
      const serving::TenantStats& ten = s.tenants[t];
      os << (t ? ", " : "") << "{\"tenant\": " << ten.tenant
         << ", \"served\": " << ten.served
         << ", \"slo_attainment\": " << ten.slo_attainment
         << ", \"p99_ms\": " << ten.p99_ms
         << ", \"throughput_rps\": " << ten.throughput_rps << "}";
    }
    os << "]}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  GLP_REQUIRE(os.good(), "failed writing '" << path << "'");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int requests = 1000;
  std::string out = "BENCH_serving.json";

  glp::Flags flags("bench_serving",
                   "Serving latency/throughput/SLO vs. offered load: "
                   "scheduler vs serial, windowed vs continuous batching.");
  flags.flag("quick", &quick, "CI mode: fewer load points, shorter trace")
      .opt("requests", &requests, "trace length per load point")
      .opt("out", &out, "output JSON path");
  switch (flags.parse(argc, argv)) {
    case glp::Flags::Status::kHelp:
      return 0;
    case glp::Flags::Status::kError:
      return 2;
    case glp::Flags::Status::kOk:
      break;
  }

  try {
    const gpusim::DeviceProps props = gpusim::DeviceTable::p100();
    const auto make_models = [](std::initializer_list<const char*> names) {
      std::vector<serving::TenantModel> models;
      for (const char* name : names) {
        serving::TenantModel m;
        m.name = name;
        m.spec = serving::by_name(name);
        models.push_back(std::move(m));
      }
      return models;
    };
    // Heavy mix: small_cnn saturates serial dispatch around 8k req/s, so
    // this is where the scheduler-vs-serial comparison is interesting.
    const auto heavy = make_models({"tiny_cnn", "small_cnn"});
    // Light mix for the high-rate ingest sweep: small_cnn is *device*
    // compute-bound on the simulated P100 (~36k samples/s per tenant,
    // invariant in batch size), which would cap the sweep at ~73k req/s
    // no matter how good the host path is. The continuous-batching and
    // coalescing work targets host-side launch overhead, so the ingest
    // sweep uses models with device headroom past 100k req/s.
    const auto light = make_models({"tiny_cnn", "mlp"});

    std::vector<double> rates{1000, 2000, 4000, 8000, 12000, 16000};
    std::vector<double> high_rates{40000, 80000, 100000, 120000};
    if (quick) {
      rates = {2000, 16000};
      high_rates = {100000};
      requests = std::min(requests, 300);
    }
    // High-rate points need enough trace behind them for the continuous
    // path to reach steady state (the first few cuts are small).
    const int high_requests = std::max(requests, 2000);

    const auto bench_point = [&](ServingRecord cfg, int n,
                                 const std::vector<serving::TenantModel>& models,
                                 const char* mix) {
      cfg.mix = mix;
      serving::TraceSpec ts;
      ts.requests = n;
      ts.rate_rps = cfg.rate_rps;
      ts.tenants = static_cast<int>(models.size());
      ts.deadline_ms = cfg.deadline_ms;
      ts.seed = 42;
      ts.fill_inputs = false;
      cfg.stats = replay_once(props, models, ts, cfg);
      std::printf(
          "%-7s %-20s %-10s batcher=%-3s %7.0f req/s offered | "
          "served %5zu/%-5zu | p50 %7.3f p99 %7.3f ms | %7.0f req/s | "
          "slo %6.2f%%\n",
          cfg.mode.c_str(), mix, serving::batch_mode_name(cfg.batch_mode),
          cfg.batcher ? "on" : "off", cfg.rate_rps, cfg.stats.served,
          cfg.stats.offered, cfg.stats.p50_ms, cfg.stats.p99_ms,
          cfg.stats.throughput_rps, 100.0 * cfg.stats.slo_attainment);
      return cfg;
    };

    std::vector<ServingRecord> records;
    // Windowed sweep, heavy mix, no deadlines: scheduler-vs-serial.
    for (const double rate : rates) {
      for (const bool scheduler : {false, true}) {
        for (const bool batcher : {true, false}) {
          ServingRecord cfg;
          cfg.mode = scheduler ? "glp4nn" : "serial";
          cfg.batcher = batcher;
          cfg.rate_rps = rate;
          records.push_back(
              bench_point(cfg, requests, heavy, "tiny_cnn+small_cnn"));
        }
      }
    }
    // Continuous sweep with a 5 ms SLO: the fleet-serving hot path
    // (continuous batching + lane coalescing). The heavy mix covers the
    // 1k-16k band (directly comparable to the windowed sweep); the light
    // mix extends to 120k offered req/s.
    for (const double rate : rates) {
      ServingRecord cfg;
      cfg.mode = "glp4nn";
      cfg.batch_mode = serving::BatchMode::kContinuous;
      cfg.coalesce = true;
      cfg.rate_rps = rate;
      cfg.deadline_ms = 5.0;
      records.push_back(bench_point(cfg, requests, heavy, "tiny_cnn+small_cnn"));
    }
    for (const double rate : high_rates) {
      ServingRecord cfg;
      cfg.mode = "glp4nn";
      cfg.batch_mode = serving::BatchMode::kContinuous;
      cfg.coalesce = true;
      cfg.rate_rps = rate;
      cfg.deadline_ms = 5.0;
      records.push_back(bench_point(cfg, high_requests, light, "tiny_cnn+mlp"));
    }

    write_json(out, records, requests, props.name);
    std::printf("wrote %s (%zu records)\n", out.c_str(), records.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
