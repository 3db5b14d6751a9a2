#include "testing/serving_differential.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "kernels/dispatch.hpp"
#include "serving/server.hpp"
#include "testing/differential_runner.hpp"

namespace glpfuzz {

namespace {

bool same_time_bits(gpusim::SimTime a, gpusim::SimTime b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

template <typename T>
T pick(glp::Rng& rng, std::initializer_list<T> values) {
  const auto* begin = values.begin();
  return begin[rng.next_below(values.size())];
}

bool chance(glp::Rng& rng, double p) { return rng.next_double() < p; }

std::size_t sample_size_of(const mc::NetSpec& net) {
  GLP_REQUIRE(!net.layers.empty() && net.layers.front().type == "Input",
              "serving case net must start with an Input layer");
  const mc::LayerParams& p = net.layers.front().params;
  return static_cast<std::size_t>(p.dataset.channels) * p.dataset.height *
         p.dataset.width;
}

}  // namespace

ServeCase make_serving_case(std::uint64_t seed, const NetGenOptions& options) {
  // Decorrelate nearby seeds, and keep this stream independent from the
  // training fuzzer's by a different additive constant.
  glp::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5e91feULL);
  ServeCase c;
  c.seed = seed;

  const int tenants = chance(rng, 0.4) ? 2 : 1;
  for (int t = 0; t < tenants; ++t) {
    mc::NetSpec net = random_inference_net(rng, options);
    net.name = "serve_fuzz_" + std::to_string(seed) + "_t" + std::to_string(t);
    c.nets.push_back(std::move(net));
  }
  c.device = random_device(rng);

  c.batch.mode = chance(rng, 0.5) ? serving::BatchMode::kContinuous
                                  : serving::BatchMode::kWindowed;
  c.batch.max_batch = pick(rng, {2, 3, 4, 6, 8});
  c.batch.max_delay_us = pick(rng, {200.0, 500.0, 1000.0, 2000.0});
  c.coalesce = chance(rng, 0.5);
  c.slots = pick(rng, {1, 2, 4});

  c.trace.requests = 16 + static_cast<int>(rng.next_below(33));  // 16..48
  c.trace.rate_rps = pick(rng, {1000.0, 3000.0, 8000.0, 20000.0});
  c.trace.arrival = pick(rng, {serving::ArrivalProcess::kPoisson,
                               serving::ArrivalProcess::kBursty,
                               serving::ArrivalProcess::kUniform,
                               serving::ArrivalProcess::kDiurnal,
                               serving::ArrivalProcess::kFlashCrowd,
                               serving::ArrivalProcess::kHeavyTail,
                               serving::ArrivalProcess::kAdversarial});
  c.trace.tenants = tenants;
  c.trace.deadline_ms = 0.0;  // the contract compares *served* outputs
  c.trace.seed = seed ^ 0xbadc0ffeULL;
  c.trace.fill_inputs = true;
  return c;
}

std::string ServeCase::summary() const {
  std::ostringstream os;
  os << "seed=" << seed << " tenants=" << nets.size() << " (";
  for (std::size_t t = 0; t < nets.size(); ++t) {
    os << (t ? "+" : "") << nets[t].layers.size();
  }
  os << " layers) batch<=" << batch.max_batch << "/"
     << static_cast<int>(batch.max_delay_us) << "us "
     << serving::batch_mode_name(batch.mode)
     << (coalesce ? "+coalesce" : "") << " slots=" << slots
     << " trace=" << trace.requests << "@"
     << static_cast<int>(trace.rate_rps) << "rps/"
     << serving::arrival_name(trace.arrival) << " device=" << device.name
     << " (C=" << device.max_concurrent_kernels << ")";
  return os.str();
}

ServeDiffResult run_serving_differential(const ServeCase& c,
                                         bool check_timeline) {
  ServeDiffResult r;
  r.requests = static_cast<std::size_t>(c.trace.requests);

  std::vector<std::size_t> sizes;
  std::vector<serving::TenantModel> models;
  for (std::size_t t = 0; t < c.nets.size(); ++t) {
    sizes.push_back(sample_size_of(c.nets[t]));
    serving::TenantModel m;
    m.name = "t" + std::to_string(t);
    m.spec = c.nets[t];
    models.push_back(std::move(m));
  }
  const auto trace = serving::make_trace(c.trace, sizes);

  // Subject: tenant-sliced scheduler with dynamic batching (windowed or
  // continuous) and, on half the cases, lane coalescing. An
  // over-provisioned queue and no deadlines mean every request is served,
  // so the comparison covers the full trace.
  std::vector<serving::RequestRecord> sub;
  {
    serving::ServerOptions opts;
    opts.slots = c.slots;
    opts.queue_capacity = trace.size() + 1;
    opts.keep_outputs = true;
    opts.batch = c.batch;
    opts.use_scheduler = true;
    opts.coalesce_lanes = c.coalesce;
    opts.record_timeline = check_timeline;
    scuda::Context ctx(c.device);
    serving::InferenceServer server(ctx, models, opts);
    sub = server.replay(trace);
    ctx.device().synchronize();
    if (check_timeline) {
      r.races = glpfuzz::check_timeline(ctx.device().timeline(), c.device);
    }
    // Sharded batchers mint strided ids, so count distinct ids rather
    // than assuming a dense 0..N-1 range.
    std::set<std::uint64_t> batch_ids;
    for (const serving::RequestRecord& rec : sub) batch_ids.insert(rec.batch_id);
    r.subject_batches = batch_ids.size();
  }

  const auto fail = [&](const std::string& why) {
    if (r.ok) {
      r.ok = false;
      r.failure = why;
    }
  };

  if (sub.size() != trace.size()) {
    fail("record count mismatch: subject " + std::to_string(sub.size()) +
         ", trace " + std::to_string(trace.size()));
    return r;
  }

  // Oracle: one batch-1 forward per request on the serial dispatcher,
  // synchronized before its output is read. It shares no serving code
  // past InferenceSession, so an output the server reads before the
  // batch's work has run cannot look the same on both sides.
  scuda::Context ref_ctx(c.device);
  kern::SerialDispatcher dispatcher(ref_ctx);
  const gpusim::StreamId home = scuda::Stream(ref_ctx).id();
  std::vector<std::unique_ptr<serving::InferenceSession>> oracle;
  for (std::size_t t = 0; t < models.size(); ++t) {
    serving::SessionOptions so;
    if (models.size() > 1) so.name_prefix = "t" + std::to_string(t) + ":";
    oracle.push_back(std::make_unique<serving::InferenceSession>(
        ref_ctx, dispatcher, models[t].spec, so));
  }

  std::map<std::uint64_t, const serving::InferenceRequest*> by_id;
  for (const serving::InferenceRequest& req : trace) by_id[req.id] = &req;
  std::set<std::uint64_t> seen;

  // Within a tenant, responses must complete in arrival order; `sub` is
  // already in completion order, so arrivals must be non-decreasing.
  std::map<int, gpusim::SimTime> last_arrival;

  for (const serving::RequestRecord& s : sub) {
    const auto it = by_id.find(s.id);
    if (it == by_id.end() || !seen.insert(s.id).second) {
      fail("subject served unknown or duplicate request id " +
           std::to_string(s.id));
      break;
    }
    if (s.outcome != serving::Outcome::kServed) {
      fail("request " + std::to_string(s.id) + " outcome " +
           serving::outcome_name(s.outcome) +
           " despite ample queue and no deadlines");
      break;
    }
    ++r.served;

    auto& last = last_arrival[s.tenant];
    if (s.arrival_ns < last) {
      fail("tenant " + std::to_string(s.tenant) +
           " completions reordered: request " + std::to_string(s.id) +
           " overtook a later arrival");
      break;
    }
    last = s.arrival_ns;

    serving::InferenceSession& sess =
        *oracle.at(static_cast<std::size_t>(s.tenant));
    serving::InferenceSession::Replica& replica = sess.checkout(1);
    sess.run_batch(replica, {it->second->input.data()}, home);
    ref_ctx.device().synchronize();
    const float* expected = sess.output_of(replica, 0);
    const std::size_t n = sess.sample_output_size();
    if (s.output.size() != n) {
      fail("request " + std::to_string(s.id) + " output size " +
           std::to_string(s.output.size()) + " vs oracle " +
           std::to_string(n));
      break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      r.max_output_diff = std::max(
          r.max_output_diff,
          static_cast<double>(std::fabs(s.output[i] - expected[i])));
    }
    if (n > 0 && std::memcmp(s.output.data(), expected, n * sizeof(float)) != 0) {
      std::ostringstream os;
      os << "request " << s.id << " output differs from its synchronized "
         << "batch-1 forward (max |diff| so far " << r.max_output_diff << ")";
      fail(os.str());
      break;
    }
    sess.release(replica);
  }

  if (r.ok && check_timeline && !r.races.clean()) {
    fail("timeline race checks failed");
  }
  return r;
}

ServeEngineDiffResult run_serving_engine_differential(const ServeCase& c) {
  ServeEngineDiffResult r;
  r.requests = static_cast<std::size_t>(c.trace.requests);

  std::vector<std::size_t> sizes;
  std::vector<serving::TenantModel> models;
  for (std::size_t t = 0; t < c.nets.size(); ++t) {
    sizes.push_back(sample_size_of(c.nets[t]));
    serving::TenantModel m;
    m.name = "t" + std::to_string(t);
    m.spec = c.nets[t];
    models.push_back(std::move(m));
  }
  const auto trace = serving::make_trace(c.trace, sizes);

  // The subject configuration only (scheduled + batched): it exercises
  // priorities, tenant stream slices and the lookahead API — the paths
  // the optimized engine most needs to reproduce exactly.
  serving::ServerOptions opts;
  opts.slots = c.slots;
  opts.queue_capacity = trace.size() + 1;
  opts.keep_outputs = true;
  opts.batch = c.batch;
  opts.use_scheduler = true;
  opts.coalesce_lanes = c.coalesce;
  opts.record_timeline = true;
  // Pin the profiling/analysis charge so the simulated clock does not
  // absorb run-to-run wall-time noise (see run_engine_differential).
  opts.scheduler.overhead_charge_ms = 0.05;

  std::vector<serving::RequestRecord> recs[2];
  gpusim::Timeline timelines[2];
  const gpusim::EngineKind kinds[2] = {gpusim::EngineKind::kOptimized,
                                       gpusim::EngineKind::kReference};
  for (int run = 0; run < 2; ++run) {
    scuda::Context ctx(c.device, kinds[run]);
    serving::InferenceServer server(ctx, models, opts);
    recs[run] = server.replay(trace);
    ctx.device().synchronize();
    timelines[run] = ctx.device().timeline();
  }

  const auto fail = [&](const std::string& why) {
    if (r.ok) {
      r.ok = false;
      r.failure = why;
    }
  };

  if (recs[0].size() != recs[1].size()) {
    fail("record count mismatch: optimized " + std::to_string(recs[0].size()) +
         " vs reference " + std::to_string(recs[1].size()));
    return r;
  }
  for (std::size_t i = 0; i < recs[0].size(); ++i) {
    const serving::RequestRecord& a = recs[0][i];
    const serving::RequestRecord& b = recs[1][i];
    const char* field = nullptr;
    if (a.id != b.id) field = "id";
    else if (a.tenant != b.tenant) field = "tenant";
    else if (a.outcome != b.outcome) field = "outcome";
    else if (a.downgraded != b.downgraded) field = "downgraded";
    else if (!same_time_bits(a.arrival_ns, b.arrival_ns)) field = "arrival_ns";
    else if (!same_time_bits(a.issue_ns, b.issue_ns)) field = "issue_ns";
    else if (!same_time_bits(a.completion_ns, b.completion_ns)) field = "completion_ns";
    else if (a.batch_id != b.batch_id) field = "batch_id";
    else if (a.batch_size != b.batch_size) field = "batch_size";
    else if (a.output.size() != b.output.size()) field = "output size";
    else if (!a.output.empty() &&
             std::memcmp(a.output.data(), b.output.data(),
                         a.output.size() * sizeof(float)) != 0) {
      field = "output bits";
    }
    if (field != nullptr) {
      std::ostringstream os;
      os << "request record " << i << " (id " << a.id << ") differs in "
         << field << " between optimized and reference engines";
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

}  // namespace glpfuzz
