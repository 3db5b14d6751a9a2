// Repository benchmark harness. One process runs one workload for a fixed
// wall-clock budget, checks the program's outputs, and prints one JSON
// result object as the last line of standard output.
//
//   perfbench_harness --workload train-numeric --seed 1 --seconds 15 --trace 0
//   perfbench_harness --selftest
//
// Workloads (all in default options: SchedulerOptions{}, ServerOptions{},
// FleetTrainerOptions{}, default host thread count):
//   train-numeric  CIFAR10-quick (batch 100), numeric glp4nn training, P100
//   paper-timing   Fig. 7 grid: 4 paper nets x 3 paper GPUs x {serial,
//                  glp4nn}, plus glp4nn+DAG on GoogLeNet-tail; timing-only
//   serve-open     tiny_cnn + small_cnn on P100, open-loop Poisson arrivals
//                  at 2k/16k/40k req/s, numeric
//   fleet-train    data-parallel timing-only training on PCIe:
//                  googlenet-pcie4, googlenet-pcie6, cifar10-pcie4
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 is a separate run that wraps each module's public entry points
// (a forwarding KernelDispatcher, timers around Net/solver/server/collective
// calls, DeviceEngine stats, Timeline, Glp4nnEngine::costs) and prints the
// per-layer metrics; its spans are kept in memory and written to --spans.

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "comm/data_parallel.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/glp4nn.hpp"
#include "kernels/cpu_math.hpp"
#include "kernels/dispatch.hpp"
#include "minicaffe/models.hpp"
#include "minicaffe/net.hpp"
#include "minicaffe/solver.hpp"
#include "serving/model_zoo.hpp"
#include "serving/server.hpp"
#include "serving/trace_gen.hpp"
#include "simcuda/fleet.hpp"
#include "testing/differential_runner.hpp"
#include "testing/race_checker.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

const Clock::time_point g_start = Clock::now();

/// Progress line on stderr, stamped with seconds since process start.
void progress(const std::string& what) {
  std::fprintf(stderr, "[%7.2f s] %s\n", seconds_since(g_start), what.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Hand freed heap pages back to the system after an instance is dropped,
/// so the peak RSS reflects live instances, not how many were replaced.
void release_free_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// Nearest-rank percentile of an ascending-sorted sample.
double nearest_rank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Median and the highest whole percentile with at least ten samples
/// beyond it (never below the median).
struct TailStats {
  double p50 = 0.0;
  double tail = 0.0;
  int tail_pct = 50;
  std::size_t n = 0;
};

/// Mean of the two steady iterations right after the profiling iteration.
/// Sim figures come from these fixed iterations, not from however many
/// rounds the host managed in the budget.
double first_steady(const std::vector<double>& v) { return 0.5 * (v.at(0) + v.at(1)); }

TailStats tail_stats(std::vector<double> v) {
  TailStats t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.p50 = median(v);
  const double n = static_cast<double>(v.size());
  t.tail_pct = std::max(50, static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / n))));
  t.tail = std::max(t.p50, nearest_rank(v, t.tail_pct));
  return t;
}

// --- machine-speed calibration --------------------------------------------

/// Fixed reference work, independent of the library under test, handed
/// out like the library's parallel_for: each of kSteps steps is split into
/// kChunksPerThread chunks per thread, claimed through an atomic ticket by
/// the caller and persistent worker threads (one per library pool worker),
/// and the caller waits until every chunk is done. A chunk multiplies a
/// private 12x48 by 48x48 matrix block and streams a private 256 KiB
/// buffer. Because a descheduled thread's unclaimed chunks go to the
/// others, the probe slows down under lost vCPU time about as much as the
/// library's own pool work does.
class ProbePool {
 public:
  explicit ProbePool(int threads)
      : threads_(static_cast<std::size_t>(std::max(1, threads))),
        work_(threads_ * kChunksPerThread) {
    for (std::size_t t = 1; t < threads_; ++t) workers_.emplace_back([this] { loop(); });
  }
  ~ProbePool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    go_.notify_all();
    for (auto& th : workers_) th.join();
  }
  ProbePool(const ProbePool&) = delete;
  ProbePool& operator=(const ProbePool&) = delete;

  /// Wall time of one probe run, in ms.
  double run_ms() {
    const auto t0 = Clock::now();
    for (int s = 0; s < kSteps; ++s) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        remaining_ = work_.size();
        next_ = 0;
        ++generation_;
      }
      go_.notify_all();
      claim();
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [this] { return remaining_ == 0; });
    }
    return ms_since(t0);
  }

 private:
  static constexpr int kN = 48, kRows = 12, kSteps = 8;
  static constexpr std::size_t kChunksPerThread = 4;
  static constexpr std::size_t kStream = 1 << 16;  // floats
  struct Work {
    std::vector<float> a = std::vector<float>(kN * kN, 1.0f), b = a, c = a;
    std::vector<float> stream = std::vector<float>(kStream, 1.0f);
    float sink = 0.0f;
  };

  static void chunk(Work& w) {
    for (int i = 0; i < kRows; ++i) {
      for (int j = 0; j < kN; ++j) {
        float acc = 0.0f;
        for (int k = 0; k < kN; ++k) acc += w.a[i * kN + k] * w.b[k * kN + j];
        w.c[i * kN + j] = acc * 1e-3f;
      }
    }
    float acc = 0.0f;
    for (float& x : w.stream) {
      x = x * 0.999f + 1e-3f;
      acc += x;
    }
    w.sink += acc + w.c[kN + 1];
  }

  /// Run chunks until none is left unclaimed in this step.
  void claim() {
    for (;;) {
      const std::size_t c = next_.fetch_add(1);
      if (c >= work_.size()) return;
      chunk(work_[c]);
      if (remaining_.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(mu_);  // orders the notify against the caller's wait
        done_.notify_one();
      }
    }
  }

  void loop() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        go_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      claim();
    }
  }

  std::size_t threads_;
  std::vector<Work> work_;
  std::atomic<std::size_t> next_{0}, remaining_{0};
  std::mutex mu_;  // guards generation_, stop_; orders the done_ notify
  std::condition_variable go_, done_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // declared last: joined before the rest dies
};

/// Fixed single-threaded reference work of the kind the simulator's event
/// loop does: a node-based container churned with small heap allocations.
/// A run inserts 3000 keys with 40-character values into a std::map, erases
/// half of them and frees the rest. Like ProbePool it does not use the
/// library, so a change to the library cannot move it.
class SerialProbe {
 public:
  /// Wall time of one probe run, in ms.
  double run_ms() {
    const auto t0 = Clock::now();
    {
      std::map<int, std::string> m;
      for (int i = 0; i < kKeys; ++i) m[(i * 7919) % 4099] = std::string(40, static_cast<char>('a' + i % 20));
      for (int i = 0; i < kKeys; i += 2) m.erase((i * 7919) % 4099);
      sink_ += m.size() + static_cast<std::size_t>(m.begin()->second[0]);
    }
    return ms_since(t0);
  }

 private:
  static constexpr int kKeys = 3000;
  std::size_t sink_ = 0;
};

/// Which reference probe rescales a workload's host times.
enum class Probe {
  kPool,    // host work on the library's thread pool (numeric math)
  kSerial,  // host work on one thread (the timing-only simulator)
};

double calibration_ms(Probe p) {
  if (p == Probe::kSerial) {
    static SerialProbe serial;
    return serial.run_ms();
  }
  static ProbePool pool(glp::parallel_workers());
  return pool.run_ms();
}

/// Probe time on a quiet 4-core machine; scaled host times are expressed
/// as if the probe took this long.
double nominal_ms(Probe p) { return p == Probe::kSerial ? 1.0 : 3.0; }

/// Host wall times of consecutive intervals, each also rescaled by the
/// probe run right before and right after it: scaled = wall x nominal /
/// mean(probe). On a shared machine whose vCPUs are taken away or whose
/// caches and allocator slow down under a neighbour's load, the probe
/// slows down together with the workload, so scaled times cancel most of
/// that drift. A workload whose host work runs on the library's thread
/// pool (train-numeric, serve-open) uses the barrier-synchronized pool
/// probe; a single-threaded one (paper-timing, fleet-train) the serial
/// probe, because the pool probe over-corrects it. The probe runs outside
/// the intervals.
class CalibratedTimes {
 public:
  explicit CalibratedTimes(Probe probe) : probe_(probe) { reprobe(); }

  /// Probe again now, for an interval that does not follow the last one.
  void reprobe() { last_ = calibration_ms(probe_); }

  /// Record an interval that has just ended (ms or s, as the caller uses).
  void add(double wall) {
    raw.push_back(wall);
    const double next = calibration_ms(probe_);
    scaled.push_back(wall * nominal_ms(probe_) / (0.5 * (last_ + next)));
    probe_ms.push_back(next);
    last_ = next;
  }

  std::vector<double> raw, scaled, probe_ms;

 private:
  Probe probe_;
  double last_ = 0.0;
};

// --- spans ---------------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
};

/// In-memory span recorder; a no-op unless enabled. Written out at exit.
class SpanLog {
 public:
  void enable() { enabled_ = true; }

  int begin(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_us(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  /// Sum of durations of spans whose name starts with `prefix`.
  double total_ms(const std::string& prefix) const {
    double us = 0.0;
    for (const Span& s : spans_) {
      if (s.name.rfind(prefix, 0) == 0) us += s.end_us - s.start_us;
    }
    return us / 1e3;
  }
  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
         << "\", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
         << ", \"parent\": " << s.parent << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }
  std::size_t size() const { return spans_.size(); }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }
  bool enabled_ = false;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name) : id_(g_spans.begin(name)) {}
  ~ScopedSpan() { g_spans.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// --- result --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
  void add(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void info(const std::string& name, double value, const std::string& unit) {
    std::printf("info %-34s %14.6f %s\n", name.c_str(), value, unit.c_str());
  }
  /// Per-layer metric; all names are pre-registered so every workload
  /// prints the same set (0 where the layer does no work on it).
  void set_layer(const std::string& name, double value) {
    for (Metric& m : layer) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    std::fprintf(stderr, "internal: unregistered per-layer metric %s\n",
                 name.c_str());
    ++failed;
    ++attempted;
  }
};

const char* kRateNames[] = {"r2k", "r16k", "r40k"};
const double kRates[] = {2000.0, 16000.0, 40000.0};
const char* kFleetCfgs[] = {"googlenet-pcie4", "googlenet-pcie6", "cifar10-pcie4"};

std::string layer_metric_name(const std::string& gpu, const std::string& net,
                              std::string layer) {
  std::replace(layer.begin(), layer.end(), '/', '-');
  return "layer." + gpu + "." + net + "." + layer + ".speedup";
}

/// Every per-layer metric, in print order, with its unit.
std::vector<Metric> per_layer_catalogue() {
  std::vector<Metric> m;
  auto add = [&](const std::string& n, const std::string& u) { m.push_back({n, 0.0, u}); };
  add("kernels.host_ms_per_iter", "ms");
  add("kernels.host_share", "ratio");
  add("kernels.host_us_per_req", "us");
  add("kernels.gemm_gflops.conv1", "GFLOP/s");
  add("kernels.gemm_gflops.conv2", "GFLOP/s");
  add("kernels.gemm_gflops.conv3", "GFLOP/s");
  add("gpusim.kernels_per_round", "count");
  add("gpusim.host_us_per_kernel", "us");
  add("gpusim.kernels_per_req", "count");
  for (const auto& d : bench::evaluation_gpus()) add("gpusim.utilization." + d.name, "ratio");
  add("core.profile_ms", "ms");
  add("core.analysis_ms", "ms");
  add("core.solver_calls", "count");
  add("core.memo_hit_ratio", "ratio");
  add("core.milp_nodes", "count");
  add("core.scope_host_us", "us");
  add("core.mean_streams", "count");
  add("core.serial_fallbacks", "count");
  add("core.layers_below_serial", "count");
  add("core.dag_joint_groups", "count");
  for (const auto& d : bench::evaluation_gpus()) {
    for (const auto& [net, spec] : mc::models::paper_networks()) {
      for (const auto& l : mc::models::tracked_conv_layers(net)) {
        add(layer_metric_name(d.name, net, l), "x");
      }
    }
  }
  add("minicaffe.issue_ms_per_iter", "ms");
  add("minicaffe.update_ms_per_iter", "ms");
  for (const char* cfg : kFleetCfgs) {
    const std::string p = std::string("comm.") + cfg;
    add(p + ".sim_ms_per_iter", "ms");
    add(p + ".exposed_ms_per_iter", "ms");
    add(p + ".bytes_per_iter", "bytes");
    add(p + ".link_busy_ms_per_iter", "ms");
    add(p + ".transfers_per_iter", "count");
    add(p + ".reduce_host_ms", "ms");
  }
  for (const char* r : kRateNames) {
    const std::string p = std::string("serving.") + r;
    add(p + ".queue_ms_p99", "ms");
    add(p + ".service_ms_p99", "ms");
    add(p + ".mean_batch", "count");
    add(p + ".refused", "count");
  }
  return m;
}

// --- tracing dispatcher --------------------------------------------------

/// Forwards every KernelDispatcher virtual to the wrapped dispatcher and
/// records one span per scope. With `sync_at_scope` it also drains the
/// device at each scope end, so the scope's work functors run inside the
/// scope's span and unscoped layers' work lands in the gap span that
/// follows.
class TracingDispatcher final : public kern::KernelDispatcher {
 public:
  TracingDispatcher(kern::KernelDispatcher& inner, scuda::Context& ctx)
      : inner_(&inner), ctx_(&ctx) {}
  ~TracingDispatcher() override { close_gap(); }
  TracingDispatcher(const TracingDispatcher&) = delete;
  TracingDispatcher& operator=(const TracingDispatcher&) = delete;

  bool record = true;         ///< false: forward only, record nothing
  bool sync_at_scope = false;

  void begin_scope(const std::string& scope, std::size_t num_tasks) override {
    if (record) {
      close_gap();
      span_ = g_spans.begin("scope:" + scope);
      t0_ = Clock::now();
    }
    inner_->begin_scope(scope, num_tasks);
  }
  kern::Lane task_lane(std::size_t index) override { return inner_->task_lane(index); }
  int max_lanes() const override { return inner_->max_lanes(); }
  void end_scope() override {
    inner_->end_scope();
    if (!record) return;
    if (sync_at_scope) ctx_->device().synchronize();
    if (!sync_at_scope) {
      scope_us_.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0_).count());
    }
    g_spans.end(span_);
    span_ = -1;
    if (sync_at_scope) gap_ = g_spans.begin("gap");
  }
  bool scope_coalescable() const override { return inner_->scope_coalescable(); }
  std::vector<kern::DagPlacement> plan_dag(const std::vector<kern::DagOp>& ops) override {
    return inner_->plan_dag(ops);
  }
  void bind_dag_op(const kern::DagOpBinding& binding) override { inner_->bind_dag_op(binding); }
  void clear_dag_op() override { inner_->clear_dag_op(); }

  /// Close the trailing gap span (call before leaving an iteration).
  void close_gap() {
    g_spans.end(gap_);
    gap_ = -1;
  }
  /// Host time of each scope recorded without a scope-end sync (issue).
  std::vector<double>& scope_us() { return scope_us_; }

 private:
  kern::KernelDispatcher* inner_;
  scuda::Context* ctx_;
  int span_ = -1;
  int gap_ = -1;
  Clock::time_point t0_;
  std::vector<double> scope_us_;
};

// --- single-device training cell ------------------------------------------

enum class Dispatch { kSerial, kGlp4nn, kGlp4nnDag };

/// One net on one simulated device under one dispatcher (default options).
struct Cell {
  Cell(const mc::NetSpec& spec, const gpusim::DeviceProps& props, Dispatch d,
       kern::ComputeMode mode, std::uint64_t seed, bool traced,
       glp4nn::SchedulerOptions options = {})
      : ctx(props), dispatch(d) {
    if (d == Dispatch::kSerial) {
      serial = std::make_unique<kern::SerialDispatcher>(ctx);
    } else {
      engine = std::make_unique<glp4nn::Glp4nnEngine>(options);
    }
    kern::KernelDispatcher& inner =
        serial ? static_cast<kern::KernelDispatcher&>(*serial) : engine->scheduler_for(ctx);
    if (traced) tracer = std::make_unique<TracingDispatcher>(inner, ctx);
    ec.ctx = &ctx;
    ec.dispatcher = tracer ? static_cast<kern::KernelDispatcher*>(tracer.get()) : &inner;
    ec.mode = mode;
    ec.dag_schedule = d == Dispatch::kGlp4nnDag;
    ec.rng = glp::Rng(seed);
    net = std::make_unique<mc::Net>(spec, ec);
    solver = std::make_unique<mc::SgdSolver>(*net, mc::SolverParams{});
  }

  /// One solver step (zero diffs, forward, backward, update, sync). The
  /// traced variant replays SgdSolver::step's sequence with a timer and a
  /// span around each module call.
  float train_step(bool traced_calls) {
    if (!traced_calls) {
      solver->step(1);
      return solver->last_loss();
    }
    const float lr = solver->current_lr();
    net->zero_param_diffs();
    auto t = Clock::now();
    {
      ScopedSpan s("minicaffe:forward");
      net->forward();
    }
    issue_ms += ms_since(t);
    drain();  // Net::backward would sync here anyway; time it as gpusim
    t = Clock::now();
    {
      ScopedSpan s("minicaffe:backward");
      net->backward();
    }
    issue_ms += ms_since(t);
    t = Clock::now();
    {
      ScopedSpan s("minicaffe:apply_update");
      solver->apply_update(lr);
    }
    update_ms += ms_since(t);
    const auto ts = Clock::now();
    float loss = 0.0f;
    {
      ScopedSpan s("gpusim:sync");
      loss = net->total_loss();
    }
    sync_ms += ms_since(ts);
    if (tracer) tracer->close_gap();
    solver->note_step(loss);
    return loss;
  }

  /// Timed device drain (host time in the simulator's event loop plus, in
  /// numeric mode, the kernels' work functors).
  void drain() {
    const auto t = Clock::now();
    ScopedSpan s("gpusim:sync");
    ctx.device().synchronize();
    sync_ms += ms_since(t);
  }

  /// Forward + backward + device sync, as the Fig. 7 bench iterates. The
  /// traced variant drains the device between the passes (Net::backward
  /// syncs there itself) so issue and simulation time separate.
  void fwd_bwd(bool traced_calls) {
    if (!traced_calls) {
      net->forward();
      net->backward();
      ctx.device().synchronize();
      return;
    }
    auto t = Clock::now();
    {
      ScopedSpan s("minicaffe:forward");
      net->forward();
    }
    issue_ms += ms_since(t);
    drain();
    t = Clock::now();
    {
      ScopedSpan s("minicaffe:backward");
      net->backward();
    }
    issue_ms += ms_since(t);
    drain();
    if (tracer) tracer->close_gap();
  }

  double sim_now_ms() { return ctx.device().host_now() / 1e6; }

  /// Sum of fwd + bwd scope spans of `layer` on the recorded timeline.
  double layer_sim_ms(const std::string& layer) const {
    double total = 0.0;
    for (const char* pass : {"/fwd/", "/bwd/"}) {
      const std::string want = layer + pass;
      double lo = 0.0, hi = 0.0;
      bool any = false;
      for (const auto& rec : ctx.device().timeline().kernels()) {
        if (rec.name.rfind(want, 0) != 0) continue;
        lo = any ? std::min(lo, rec.start_ns) : rec.start_ns;
        hi = any ? std::max(hi, rec.end_ns) : rec.end_ns;
        any = true;
      }
      if (any) total += (hi - lo) / 1e6;
    }
    return total;
  }

  scuda::Context ctx;
  Dispatch dispatch;
  std::unique_ptr<kern::SerialDispatcher> serial;
  std::unique_ptr<glp4nn::Glp4nnEngine> engine;
  std::unique_ptr<TracingDispatcher> tracer;
  mc::ExecContext ec;
  std::unique_ptr<mc::Net> net;
  std::unique_ptr<mc::SgdSolver> solver;
  double issue_ms = 0.0;
  double update_ms = 0.0;
  double sync_ms = 0.0;
};

void add_core_metrics(Report& r, const std::vector<glp4nn::FrameworkCosts>& costs,
                      const std::vector<double>& streams, std::size_t fallbacks,
                      std::size_t joint_groups) {
  glp4nn::FrameworkCosts sum;
  for (const auto& c : costs) {
    sum.profiling_ms += c.profiling_ms;
    sum.analysis_ms += c.analysis_ms;
    sum.solver_calls += c.solver_calls;
    sum.solve_cache_hits += c.solve_cache_hits;
    sum.milp_nodes += c.milp_nodes;
  }
  r.set_layer("core.profile_ms", sum.profiling_ms);
  r.set_layer("core.analysis_ms", sum.analysis_ms);
  r.set_layer("core.solver_calls", static_cast<double>(sum.solver_calls));
  const double lookups = static_cast<double>(sum.solver_calls + sum.solve_cache_hits);
  r.set_layer("core.memo_hit_ratio", lookups > 0 ? sum.solve_cache_hits / lookups : 0.0);
  r.set_layer("core.milp_nodes", static_cast<double>(sum.milp_nodes));
  double mean = 0.0;
  for (double s : streams) mean += s;
  r.set_layer("core.mean_streams", streams.empty() ? 0.0 : mean / streams.size());
  r.set_layer("core.serial_fallbacks", static_cast<double>(fallbacks));
  r.set_layer("core.dag_joint_groups", static_cast<double>(joint_groups));
}

/// Stream counts the scheduler chose for every analyzed scope of `cell`.
std::vector<double> cell_streams(Cell& cell) {
  std::vector<double> out;
  if (!cell.engine) return out;
  auto& sched = cell.engine->scheduler_for(cell.ctx);
  if (auto* a = cell.engine->analyzer_for(cell.ctx)) {
    for (const auto& [scope, d] : a->decisions()) out.push_back(sched.stream_count(scope));
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string spans_path;
};

// --- kernels: direct GEMM on CIFAR10's per-sample forward shapes ----------

void measure_gemm(Report& r, std::uint64_t seed) {
  struct Shape { const char* name; int m, n, k; };
  // conv1: 32 filters x (3*5*5) on 32x32; conv2: 32 x (32*5*5) on 16x16;
  // conv3: 64 x (32*5*5) on 8x8.
  const Shape shapes[] = {{"conv1", 32, 1024, 75}, {"conv2", 32, 256, 800}, {"conv3", 64, 64, 800}};
  glp::Rng rng(seed);
  for (const Shape& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m) * s.k), b(static_cast<std::size_t>(s.k) * s.n),
        c(static_cast<std::size_t>(s.m) * s.n, 0.0f);
    for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    const double flop = 2.0 * s.m * s.n * s.k;
    int reps = 0;
    ScopedSpan span(std::string("kernels:gemm:") + s.name);
    const auto t0 = Clock::now();
    do {
      kern::cpu::gemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), s.n, 0.0f,
                      c.data(), s.n);
      ++reps;
    } while (seconds_since(t0) < 0.2);
    r.set_layer(std::string("kernels.gemm_gflops.") + s.name, flop * reps / seconds_since(t0) / 1e9);
  }
}

/// The four host end-to-end metrics from calibrated set-up and round
/// times, plus the raw wall figures on info lines. `setup` and `rounds`
/// hold {scaled, raw} pairs.
void add_host_metrics(Report& r, std::pair<double, double> setup, const std::vector<double>& scaled,
                      const std::vector<double>& raw, const std::vector<double>& probe_ms) {
  const TailStats ts = tail_stats(scaled);
  const TailStats wall = tail_stats(raw);
  r.add("setup_s", setup.first, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("host_ms_per_round_p50", ts.p50, "ms");
  r.add("host_ms_per_round_tail", ts.tail, "ms");
  std::printf("info rounds %zu, tail = p%d\n", ts.n, ts.tail_pct);
  r.info("wall_setup_s", setup.second, "s");
  r.info("wall_ms_per_round_p50", wall.p50, "ms");
  r.info("wall_ms_per_round_tail", wall.tail, "ms");
  if (!probe_ms.empty()) r.info("calibration_probe_ms_p50", median(probe_ms), "ms");
}

void add_host_metrics(Report& r, const CalibratedTimes& setups, const CalibratedTimes& rounds) {
  add_host_metrics(r, {median(setups.scaled), median(setups.raw)}, rounds.scaled, rounds.raw,
                   rounds.probe_ms);
}

// --- train-numeric -------------------------------------------------------

/// Set-ups per run; setup_s is their median. One set-up is a single
/// interval with one probe pair, so under bursty steal time a single
/// reading can be far off. paper-timing sets up fewer times because one
/// set-up of its nine cells per GPU costs about 1.7 s.
constexpr int kSetups = 5;
constexpr int kPaperSetups = 3;

void run_train_numeric(const Options& o, Report& r) {
  const mc::NetSpec spec = mc::models::cifar10_quick();
  const auto p100 = gpusim::DeviceTable::p100();
  const auto numeric = kern::ComputeMode::kNumeric;

  // Set-up: net construction, weight fill and the profiling iteration
  // (T_p + T_a), kSetups times; the last instance is measured.
  std::unique_ptr<Cell> cell;
  CalibratedTimes setups(Probe::kPool);
  std::vector<float> losses;
  for (int k = 0; k < kSetups; ++k) {
    ScopedSpan s("setup");
    const auto t0 = Clock::now();
    cell.reset();
    cell = std::make_unique<Cell>(spec, p100, Dispatch::kGlp4nn, numeric, o.seed, o.trace);
    losses.assign(1, cell->train_step(false));
    setups.add(seconds_since(t0));
  }

  progress("train-numeric: set-up done, measuring");
  CalibratedTimes rounds(Probe::kPool);
  std::vector<double> sim_ms;
  const auto t_run = Clock::now();
  // Traced runs spend the first half untraced (the forwarding dispatcher
  // records nothing; this is the overhead baseline), the third quarter
  // with spans and call timers, and the last quarter with a device sync at
  // every scope boundary (host attribution per scope).
  std::vector<double> plain_ms, traced_ms, synced_ms;
  std::uint64_t traced_kernels = 0;
  int traced_rounds = 0;
  while (seconds_since(t_run) < o.seconds || rounds.raw.size() < 5) {
    const double frac = seconds_since(t_run) / o.seconds;
    const bool traced_calls = o.trace && frac >= 0.5;
    if (cell->tracer) {
      cell->tracer->record = traced_calls;
      cell->tracer->sync_at_scope = o.trace && frac >= 0.75;
    }
    const double s0 = cell->sim_now_ms();
    const std::uint64_t kb = cell->ctx.device().stats().kernels_launched;
    double ms = 0.0;
    {
      ScopedSpan s("round");
      const auto t0 = Clock::now();
      losses.push_back(cell->train_step(traced_calls));
      ms = ms_since(t0);
    }
    rounds.add(ms);
    sim_ms.push_back(cell->sim_now_ms() - s0);
    if (!o.trace) continue;
    if (!traced_calls) {
      plain_ms.push_back(ms);
    } else if (!cell->tracer->sync_at_scope) {
      traced_ms.push_back(ms);
      traced_kernels += cell->ctx.device().stats().kernels_launched - kb;
      ++traced_rounds;
    } else {
      synced_ms.push_back(ms);
    }
  }

  // Output check: finite losses, and the glpfuzz differential contract
  // against a serial-dispatcher run of the same seed.
  for (float l : losses) r.check(std::isfinite(l), "train-numeric: non-finite loss");
  const std::size_t compare = std::min<std::size_t>(losses.size(), 6);
  Cell serial(spec, p100, Dispatch::kSerial, numeric, o.seed, false);
  const bool bit_exact = glpfuzz::bit_exact_contract(spec, glp4nn::SchedulerOptions{});
  std::vector<double> serial_sims;  // iterations 2.. of the serial run
  for (std::size_t i = 0; i < compare; ++i) {
    const double s0 = serial.sim_now_ms();
    const float l = serial.train_step(false);
    if (i > 0) serial_sims.push_back(serial.sim_now_ms() - s0);
    const float g = losses[i];
    const bool ok = bit_exact ? std::memcmp(&l, &g, sizeof l) == 0
                              : std::abs(static_cast<double>(l) - g) <= 1e-4 + 1e-2 * std::abs(static_cast<double>(l));
    r.check(ok, "train-numeric: loss " + std::to_string(i) + " glp4nn " + std::to_string(g) +
                    " vs serial " + std::to_string(l));
  }

  const double glp_sim = first_steady(sim_ms);
  const double serial_sim_ms = first_steady(serial_sims);
  add_host_metrics(r, setups, rounds);
  r.add("sim_speedup_geomean", serial_sim_ms / glp_sim, "x");
  r.info("sim_ms_per_iter", glp_sim, "ms");
  r.info("serial_sim_ms_per_iter", serial_sim_ms, "ms");
  r.info("final_loss", losses.back(), "");

  if (!o.trace) return;
  // Timing-only twin: same net, no host math, so host time is gpusim +
  // core + minicaffe issue; the numeric excess is the kernels' share.
  Cell twin(spec, p100, Dispatch::kGlp4nn, kern::ComputeMode::kTimingOnly, o.seed, false);
  twin.train_step(false);
  std::vector<double> twin_ms;
  std::uint64_t twin_kernels = 0;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t kb = twin.ctx.device().stats().kernels_launched;
    const auto t0 = Clock::now();
    twin.train_step(true);
    twin_ms.push_back(ms_since(t0));
    twin_kernels += twin.ctx.device().stats().kernels_launched - kb;
  }
  const double plain = median(plain_ms);
  const double kernels_ms = std::max(0.0, plain - median(twin_ms));
  r.set_layer("kernels.host_ms_per_iter", kernels_ms);
  r.set_layer("kernels.host_share", kernels_ms / plain);
  measure_gemm(r, o.seed);
  r.set_layer("gpusim.kernels_per_round",
              traced_rounds ? static_cast<double>(traced_kernels) / traced_rounds : 0.0);
  r.set_layer("gpusim.host_us_per_kernel", twin_kernels ? 1e3 * twin.sync_ms / twin_kernels : 0.0);
  // Issue time from the twin, whose issue calls run no host math even in
  // the synced-scope quarter.
  const double n_traced = static_cast<double>(traced_ms.size() + synced_ms.size());
  r.set_layer("minicaffe.issue_ms_per_iter", twin.issue_ms / 10.0);
  r.set_layer("minicaffe.update_ms_per_iter", cell->update_ms / std::max(1.0, n_traced));
  r.set_layer("core.scope_host_us", median(cell->tracer->scope_us()));
  add_core_metrics(r, {cell->engine->costs()}, cell_streams(*cell),
                   cell->engine->scheduler_for(cell->ctx).serial_fallback_count(),
                   cell->engine->scheduler_for(cell->ctx).dag_joint_groups());
  std::printf("info tracing overhead: traced p50 %.3f ms vs untraced p50 %.3f ms (%+.2f%%)\n",
              median(traced_ms), plain, 100.0 * (median(traced_ms) / plain - 1.0));
  std::printf("info synced-scope pass p50 %.3f ms; scope spans %.1f ms, gap spans %.1f ms\n",
              median(synced_ms), g_spans.total_ms("scope:"), g_spans.total_ms("gap"));
}

// --- paper-timing --------------------------------------------------------

/// Simulated times of `c` over the two steady iterations right after the
/// profiling iteration, recorded on the Timeline with no extra
/// synchronization (bench_fig7_speedup's protocol: timeline cleared per
/// iteration, per-layer fwd + bwd scope spans, averaged).
struct SimSample {
  double iter_ms = 0.0;
  std::map<std::string, double> layer_ms;
  double utilization = 0.0;
  std::vector<glpfuzz::RaceReport> races;
};

SimSample sim_pass(Cell& c, const std::vector<std::string>& tracked,
                   const gpusim::DeviceProps& props) {
  constexpr int kIters = 2;
  SimSample out;
  gpusim::Timeline& tl = c.ctx.device().timeline();
  c.ctx.device().reset_stats();
  for (int i = 0; i < kIters; ++i) {
    tl.clear();
    tl.set_enabled(true);
    const double s0 = c.sim_now_ms();
    c.fwd_bwd(false);
    out.iter_ms += (c.sim_now_ms() - s0) / kIters;
    tl.set_enabled(false);
    for (const auto& l : tracked) out.layer_ms[l] += c.layer_sim_ms(l) / kIters;
    out.races.push_back(glpfuzz::check_timeline(tl, props));
  }
  tl.clear();
  out.utilization = c.ctx.device().stats().mean_utilization(props.total_lanes());
  return out;
}

void run_paper_timing(const Options& o, Report& r) {
  const auto timing = kern::ComputeMode::kTimingOnly;
  const auto gpus = bench::evaluation_gpus();
  const auto nets = mc::models::paper_networks();
  std::vector<CalibratedTimes> setup_by_gpu(gpus.size(), CalibratedTimes(Probe::kSerial));
  std::vector<CalibratedTimes> rounds_by_gpu(gpus.size(), CalibratedTimes(Probe::kSerial));
  std::vector<double> iter_speedups, dag_speedups, layer_speedups;
  std::vector<glp4nn::FrameworkCosts> costs;
  std::vector<double> streams;
  std::size_t fallbacks = 0, joint_groups = 0, below_serial = 0;
  std::uint64_t kernels = 0;
  double sync_ms = 0.0, issue_ms = 0.0;
  int traced_iters = 0;
  std::vector<double> scope_us;

  // Cells are kept alive one GPU at a time (two CaffeNet instances need
  // ~1.8 GB); a round is one steady iteration of every cell, summed over
  // the three GPU groups.
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    const gpusim::DeviceProps& gpu = gpus[g];
    std::vector<std::unique_ptr<Cell>> cells;
    std::vector<std::string> names;
    // Set up kPaperSetups times; the last cells are measured. Tearing
    // down the previous cells is not timed.
    for (int k = 0; k < kPaperSetups; ++k) {
      cells.clear();
      names.clear();
      release_free_heap();
      setup_by_gpu[g].reprobe();
      ScopedSpan s("setup:" + gpu.name);
      const auto t0 = Clock::now();
      for (const auto& [name, spec] : nets) {
        for (Dispatch d : {Dispatch::kSerial, Dispatch::kGlp4nn}) {
          cells.push_back(std::make_unique<Cell>(spec, gpu, d, timing, o.seed, o.trace));
          names.push_back(name);
        }
        if (name == "GoogLeNet") {
          cells.push_back(std::make_unique<Cell>(spec, gpu, Dispatch::kGlp4nnDag, timing, o.seed, o.trace));
          names.push_back(name);
        }
      }
      for (auto& c : cells) c->fwd_bwd(false);  // profiling iteration
      setup_by_gpu[g].add(seconds_since(t0));
    }

    // Sim pass, before the measured rounds so every sim figure comes from
    // the same iterations whatever the host speed; its timelines also
    // feed the race checker.
    std::vector<SimSample> samples;
    {
      ScopedSpan s("sim-pass:" + gpu.name);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        samples.push_back(sim_pass(*cells[i], mc::models::tracked_conv_layers(names[i]), gpu));
        for (const auto& race : samples.back().races) {
          r.check(race.clean(), "paper-timing: race checker on " + gpu.name + "/" + names[i] + ": " +
                                    race.to_string());
        }
      }
    }

    progress("paper-timing: " + gpu.name + " set-up done, measuring");
    CalibratedTimes& rounds = rounds_by_gpu[g];
    rounds.reprobe();
    const auto t_run = Clock::now();
    const double budget = o.seconds / static_cast<double>(gpus.size());
    while (seconds_since(t_run) < budget || rounds.raw.size() < 5) {
      double ms = 0.0;
      {
        ScopedSpan s("round:" + gpu.name);
        const auto t0 = Clock::now();
        for (auto& c : cells) {
          const std::uint64_t kb = c->ctx.device().stats().kernels_launched;
          c->fwd_bwd(o.trace);
          if (o.trace) kernels += c->ctx.device().stats().kernels_launched - kb;
        }
        ms = ms_since(t0);
      }
      rounds.add(ms);
      if (o.trace) ++traced_iters;
    }

    double util = 0.0;
    int util_n = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      Cell& c = *cells[i];
      const SimSample& sample = samples[i];
      if (c.dispatch == Dispatch::kSerial) {
        const SimSample& glp = samples[i + 1];
        iter_speedups.push_back(sample.iter_ms / glp.iter_ms);
        for (const auto& [l, ms] : sample.layer_ms) {
          const double sp = ms / glp.layer_ms.at(l);
          layer_speedups.push_back(sp);
          if (sp < 1.0) ++below_serial;
          if (o.trace) r.set_layer(layer_metric_name(gpu.name, names[i], l), sp);
        }
      } else if (c.dispatch == Dispatch::kGlp4nnDag) {
        dag_speedups.push_back(samples[i - 1].iter_ms / sample.iter_ms);
      }
      if (c.dispatch != Dispatch::kSerial) {
        costs.push_back(c.engine->costs());
        const auto st = cell_streams(c);
        streams.insert(streams.end(), st.begin(), st.end());
        auto& sched = c.engine->scheduler_for(c.ctx);
        fallbacks += sched.serial_fallback_count();
        joint_groups += sched.dag_joint_groups();
      }
      if (c.dispatch == Dispatch::kGlp4nn) {
        util += sample.utilization;
        ++util_n;
      }
      issue_ms += c.issue_ms;
      sync_ms += c.sync_ms;
      if (c.tracer) {
        scope_us.insert(scope_us.end(), c.tracer->scope_us().begin(), c.tracer->scope_us().end());
      }
    }
    if (o.trace) r.set_layer("gpusim.utilization." + gpu.name, util / util_n);
  }

  // Round i is the i-th round of every GPU group; set-up is the sum of the
  // three groups' median set-ups.
  std::size_t n = rounds_by_gpu.front().raw.size();
  for (const auto& v : rounds_by_gpu) n = std::min(n, v.raw.size());
  std::vector<double> scaled(n, 0.0), raw(n, 0.0), probe_ms;
  std::pair<double, double> setup{0.0, 0.0};
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] += rounds_by_gpu[g].scaled[i];
      raw[i] += rounds_by_gpu[g].raw[i];
    }
    const auto& p = rounds_by_gpu[g].probe_ms;
    probe_ms.insert(probe_ms.end(), p.begin(), p.end());
    setup.first += median(setup_by_gpu[g].scaled);
    setup.second += median(setup_by_gpu[g].raw);
  }
  add_host_metrics(r, setup, scaled, raw, probe_ms);
  r.add("sim_speedup_geomean", geomean(iter_speedups), "x");
  r.info("sim_layer_speedup_min", *std::min_element(layer_speedups.begin(), layer_speedups.end()), "x");
  r.info("sim_dag_speedup", geomean(dag_speedups), "x");

  if (!o.trace) return;
  const double iters = std::max(1, traced_iters);
  r.set_layer("gpusim.kernels_per_round", static_cast<double>(kernels) / iters * gpus.size());
  r.set_layer("gpusim.host_us_per_kernel", kernels ? 1e3 * sync_ms / kernels : 0.0);
  r.set_layer("minicaffe.issue_ms_per_iter", issue_ms / iters * gpus.size());
  r.set_layer("core.scope_host_us", median(scope_us));
  r.set_layer("core.layers_below_serial", static_cast<double>(below_serial));
  add_core_metrics(r, costs, streams, fallbacks, joint_groups);
}

// --- serve-open ----------------------------------------------------------

std::vector<serving::TenantModel> tenant_models() {
  std::vector<serving::TenantModel> models;
  for (const char* name : {"tiny_cnn", "small_cnn"}) {
    serving::TenantModel m;
    m.name = name;
    m.spec = serving::by_name(name);
    models.push_back(std::move(m));
  }
  return models;
}

std::vector<std::size_t> tenant_input_sizes() {
  std::vector<std::size_t> sizes;
  for (const auto& m : tenant_models()) {
    const auto& d = m.spec.layers.front().params.dataset;
    sizes.push_back(static_cast<std::size_t>(d.channels) * d.height * d.width);
  }
  return sizes;
}

/// One round's open-loop trace at one rate: `measured` requests framed by
/// 0.5 ms of warm-in arrivals before them and, after them, enough arrivals
/// to close the last measured request's batching window (2 ms, or 16
/// arrivals: a full batch of 8 per tenant), so measured requests see a
/// running stream rather than the end of a trace.
struct RoundTrace {
  std::vector<serving::InferenceRequest> requests;
  std::uint64_t first = 0;  ///< ids [first, last) are measured
  std::uint64_t last = 0;
  bool measured(const serving::RequestRecord& rec) const {
    return rec.id >= first && rec.id < last;
  }
};

RoundTrace make_trace_at(std::uint64_t seed, double rate, int measured, bool fill) {
  const int pre = static_cast<int>(std::ceil(rate * 0.5e-3)) + 1;
  const int post = static_cast<int>(std::ceil(std::min(rate * 2e-3, 16.0))) + 2;
  serving::TraceSpec ts;
  ts.requests = pre + measured + post;
  ts.rate_rps = rate;
  ts.arrival = serving::ArrivalProcess::kPoisson;
  ts.tenants = 2;
  ts.seed = seed;
  ts.fill_inputs = fill;
  RoundTrace t;
  t.requests = serving::make_trace(ts, tenant_input_sizes());
  t.first = static_cast<std::uint64_t>(pre);
  t.last = static_cast<std::uint64_t>(pre + measured);
  return t;
}

constexpr int kServePerRound = 100;  // measured requests per rate per round
constexpr int kServeMinPerRate = 2000;

RoundTrace make_round_trace(const Options& o, int round, int rate_idx, bool fill) {
  return make_trace_at(o.seed * 1000003ULL + static_cast<std::uint64_t>(round) * 31ULL +
                           static_cast<std::uint64_t>(rate_idx),
                       kRates[rate_idx], kServePerRound, fill);
}

/// p99 <= 5 ms over the measured requests, nothing refused, and no growing
/// backlog (the second half's mean queueing delay stays within 1 ms of the
/// first half's).
bool sustainable(const RoundTrace& t, std::vector<serving::RequestRecord> recs) {
  std::vector<serving::RequestRecord> served;
  for (const auto& rec : recs) {
    if (rec.outcome != serving::Outcome::kServed) return false;
    if (t.measured(rec)) served.push_back(rec);
  }
  std::sort(served.begin(), served.end(),
            [](const auto& a, const auto& b) { return a.arrival_ns < b.arrival_ns; });
  std::vector<double> lat;
  double q1 = 0.0, q2 = 0.0;
  const std::size_t half = served.size() / 2;
  for (std::size_t i = 0; i < served.size(); ++i) {
    lat.push_back(served[i].latency_ms());
    (i < half ? q1 : q2) += served[i].queue_ms();
  }
  std::sort(lat.begin(), lat.end());
  q1 /= static_cast<double>(std::max<std::size_t>(1, half));
  q2 /= static_cast<double>(std::max<std::size_t>(1, served.size() - half));
  return nearest_rank(lat, 99) <= 5.0 && q2 <= q1 + 1.0;
}

void run_serve_open(const Options& o, Report& r) {
  const auto p100 = gpusim::DeviceTable::p100();

  // Set-up: device, two tenant sessions, server and warmup, kSetups times.
  std::unique_ptr<scuda::Context> ctx;
  std::unique_ptr<serving::InferenceServer> server;
  CalibratedTimes setups(Probe::kPool);
  for (int k = 0; k < kSetups; ++k) {
    ScopedSpan s("setup");
    const auto t0 = Clock::now();
    server.reset();
    ctx = std::make_unique<scuda::Context>(p100);
    server = std::make_unique<serving::InferenceServer>(*ctx, tenant_models(), serving::ServerOptions{});
    server->prewarm();
    setups.add(seconds_since(t0));
  }

  progress("serve-open: set-up done, measuring");
  // A round replays one fresh trace at each of the three rates.
  CalibratedTimes rounds(Probe::kPool);
  std::vector<std::vector<serving::RequestRecord>> by_rate(3);
  double replay_ms = 0.0;
  std::size_t replayed = 0;
  const std::uint64_t k0 = ctx->device().stats().kernels_launched;
  const auto t_run = Clock::now();
  int round = 0;
  while (seconds_since(t_run) < o.seconds || round * kServePerRound < kServeMinPerRate) {
    std::vector<RoundTrace> traces;
    for (int ri = 0; ri < 3; ++ri) {
      traces.push_back(make_round_trace(o, round, ri, true));
      replayed += traces.back().requests.size();
    }
    std::vector<std::vector<serving::RequestRecord>> recs(3);
    double ms = 0.0;
    {
      ScopedSpan s("round");
      const auto t0 = Clock::now();
      for (std::size_t ri = 0; ri < 3; ++ri) {
        ScopedSpan sr(std::string("serving:replay:") + kRateNames[ri]);
        recs[ri] = server->replay(std::move(traces[ri].requests));
      }
      ms = ms_since(t0);
    }
    rounds.add(ms);
    replay_ms += ms;
    // Every offered request is an attempt; refused ones are failures.
    for (std::size_t ri = 0; ri < 3; ++ri) {
      for (const auto& rec : recs[ri]) {
        r.check(rec.outcome == serving::Outcome::kServed,
                std::string("serve-open: request refused at ") + kRateNames[ri] + " (" +
                    serving::outcome_name(rec.outcome) + ")");
        // Latency figures use the first kServeMinPerRate requests per rate,
        // so they do not depend on how many rounds the host managed.
        if (traces[ri].measured(rec) && round * kServePerRound < kServeMinPerRate) {
          by_rate[ri].push_back(rec);
        }
      }
    }
    ++round;
  }
  const std::uint64_t kernels = ctx->device().stats().kernels_launched - k0;

  // Output check: the first kCheckRounds r2k rounds replayed on the
  // serial-baseline server and on a default glp4nn server, both keeping
  // outputs; a seeded sample of measured responses must be served by both
  // and bit-identical. The same replays give the latency ratio.
  constexpr int kCheckRounds = 10;
  glp::Rng pick(o.seed ^ 0x5e4e5eULL);
  double serial_lat = 0.0, glp_lat = 0.0;
  for (int rr = 0; rr < kCheckRounds; ++rr) {
    auto run = [&](bool scheduler, RoundTrace& t) {
      scuda::Context g(p100);
      serving::ServerOptions opts;
      opts.use_scheduler = scheduler;
      opts.keep_outputs = true;
      serving::InferenceServer srv(g, tenant_models(), opts);
      auto recs = srv.replay(std::move(t.requests));
      std::sort(recs.begin(), recs.end(), [](const auto& a, const auto& b) { return a.id < b.id; });
      return recs;
    };
    RoundTrace tb = make_round_trace(o, rr, 0, true), tg = make_round_trace(o, rr, 0, true);
    const auto base = run(false, tb);
    const auto glp = run(true, tg);
    for (std::size_t i = 0; i < base.size() && i < glp.size(); ++i) {
      if (!tg.measured(glp[i]) || base[i].outcome != serving::Outcome::kServed ||
          glp[i].outcome != serving::Outcome::kServed) {
        continue;
      }
      serial_lat += base[i].latency_ms();
      glp_lat += glp[i].latency_ms();
    }
    for (int k = 0; k < 4; ++k) {
      const std::size_t i = tg.first + pick.next_u64() % (tg.last - tg.first);
      const bool ok = i < base.size() && i < glp.size() && base[i].id == glp[i].id &&
                      base[i].outcome == serving::Outcome::kServed &&
                      glp[i].outcome == serving::Outcome::kServed && !glp[i].output.empty() &&
                      base[i].output.size() == glp[i].output.size() &&
                      std::memcmp(base[i].output.data(), glp[i].output.data(),
                                  glp[i].output.size() * sizeof(float)) == 0;
      r.check(ok, "serve-open: response " + std::to_string(i) + " differs from the serial baseline");
    }
  }

  add_host_metrics(r, setups, rounds);
  r.add("sim_speedup_geomean", serial_lat / glp_lat, "x");
  std::printf("info open-loop Poisson arrivals in simulated time, so the generator is never "
              "late (0 ms)\n");
  for (std::size_t ri = 0; ri < 3; ++ri) {
    const auto st = serving::InferenceServer::summarize(by_rate[ri]);
    std::printf("info %s: %zu measured requests\n", kRateNames[ri], by_rate[ri].size());
    r.info(std::string("serve_p50_ms.") + kRateNames[ri], st.p50_ms, "ms");
    r.info(std::string("serve_p99_ms.") + kRateNames[ri], st.p99_ms, "ms");
  }
  r.info("serve_host_us_per_req", 1e3 * replay_ms / static_cast<double>(replayed), "us");

  if (!o.trace) {
    // Highest offered rate meeting the limits, stepping up by 1.25x from
    // the top fixed rate.
    double best = 0.0;
    for (double rate = 40000.0; rate <= 200000.0; rate *= 1.25) {
      const RoundTrace t = make_trace_at(o.seed + static_cast<std::uint64_t>(rate), rate, 1000, true);
      auto reqs = t.requests;
      if (!sustainable(t, server->replay(std::move(reqs)))) break;
      best = rate;
    }
    r.info("serve_max_rps", best, "1/s");
    return;
  }

  // Per-layer: queueing vs service split, batching, refusals per rate.
  for (std::size_t ri = 0; ri < 3; ++ri) {
    std::vector<double> q, sv;
    double batch = 0.0;
    std::size_t refused = 0;
    for (const auto& rec : by_rate[ri]) {
      if (rec.outcome != serving::Outcome::kServed) {
        ++refused;
        continue;
      }
      q.push_back(rec.queue_ms());
      sv.push_back((rec.completion_ns - rec.issue_ns) / gpusim::kMs);
      batch += rec.batch_size;
    }
    std::sort(q.begin(), q.end());
    std::sort(sv.begin(), sv.end());
    const std::string p = std::string("serving.") + kRateNames[ri];
    r.set_layer(p + ".queue_ms_p99", nearest_rank(q, 99));
    r.set_layer(p + ".service_ms_p99", nearest_rank(sv, 99));
    r.set_layer(p + ".mean_batch", q.empty() ? 0.0 : batch / static_cast<double>(q.size()));
    r.set_layer(p + ".refused", static_cast<double>(refused));
  }
  r.set_layer("gpusim.kernels_per_req", static_cast<double>(kernels) / static_cast<double>(replayed));
  // Timing-only twin replay of the same traces: the numeric excess is the
  // host math of the kernels.
  scuda::Context tctx(p100);
  serving::ServerOptions topts;
  topts.mode = kern::ComputeMode::kTimingOnly;
  serving::InferenceServer twin(tctx, tenant_models(), topts);
  twin.prewarm();
  double twin_ms = 0.0;
  for (int rr = 0; rr < round; ++rr) {
    for (int ri = 0; ri < 3; ++ri) {
      RoundTrace t = make_round_trace(o, rr, ri, false);
      const auto t0 = Clock::now();
      twin.replay(std::move(t.requests));
      twin_ms += ms_since(t0);
    }
  }
  r.set_layer("kernels.host_us_per_req",
              std::max(0.0, 1e3 * (replay_ms - twin_ms) / static_cast<double>(replayed)));
}

// --- fleet-train ---------------------------------------------------------

struct FleetCfg {
  std::string name;
  mc::NetSpec spec;
  int devices = 4;
};

std::vector<FleetCfg> fleet_configs() {
  return {{kFleetCfgs[0], mc::models::googlenet_tail(), 4},
          {kFleetCfgs[1], mc::models::googlenet_tail(), 6},
          {kFleetCfgs[2], mc::models::cifar10_quick(), 4}};
}

struct FleetRun {
  FleetRun(const FleetCfg& cfg, std::uint64_t seed) {
    scuda::FleetOptions fo;
    fo.topology = gpusim::LinkTopology::kPcieHost;
    fo.link = gpusim::LinkProps::pcie();
    fleet = std::make_unique<scuda::Fleet>(
        std::vector<gpusim::DeviceProps>(static_cast<std::size_t>(cfg.devices), gpusim::DeviceTable::p100()),
        fo);
    for (int d = 0; d < cfg.devices; ++d) {
      scuda::Context& ctx = fleet->device(d);
      engines.push_back(std::make_unique<glp4nn::Glp4nnEngine>(glp4nn::SchedulerOptions{}));
      auto ec = std::make_unique<mc::ExecContext>();
      ec->ctx = &ctx;
      ec->mode = kern::ComputeMode::kTimingOnly;
      ec->dispatcher = &engines.back()->scheduler_for(ctx);
      ec->rng = glp::Rng(seed);
      ptrs.push_back(ec.get());
      ecs.push_back(std::move(ec));
    }
    trainer = std::make_unique<comm::FleetTrainer>(*fleet, ptrs, cfg.spec, comm::FleetTrainerOptions{});
  }
  double step_sim_ms() {
    const double t0 = fleet->max_device_now();
    trainer->step(1);
    fleet->synchronize_all();
    return (fleet->max_device_now() - t0) / 1e6;
  }

  std::unique_ptr<scuda::Fleet> fleet;
  std::vector<std::unique_ptr<glp4nn::Glp4nnEngine>> engines;
  std::vector<std::unique_ptr<mc::ExecContext>> ecs;
  std::vector<mc::ExecContext*> ptrs;
  std::unique_ptr<comm::FleetTrainer> trainer;
};

/// Fleet instances are replaced every kFleetRounds rounds. The stall in the
/// link model starts near 2.1 s of simulated time; 10 iterations stay far
/// below that (at most 17.4 ms each). A run-to-run difference in the
/// measured T_p + T_a charge changes an instance's later host cost per
/// round, so many short lifetimes average it out, and a fixed lifetime
/// keeps the mix of instance ages the same in every run.
constexpr int kFleetRounds = 10;
constexpr double kFleetSimLimitNs = 1.0e9;

void run_fleet_train(const Options& o, Report& r) {
  const auto cfgs = fleet_configs();
  // Set-up: fleets, replicas and the profiling iteration of every
  // configuration, kSetups times; the last instances are measured.
  std::vector<std::unique_ptr<FleetRun>> runs;
  CalibratedTimes setups(Probe::kSerial);
  for (int k = 0; k < kSetups; ++k) {
    ScopedSpan s("setup");
    const auto t0 = Clock::now();
    runs.clear();
    release_free_heap();
    for (const auto& c : cfgs) {
      runs.push_back(std::make_unique<FleetRun>(c, o.seed));
      runs.back()->step_sim_ms();  // profiling iteration
    }
    setups.add(seconds_since(t0));
  }

  progress("fleet-train: set-up done, measuring");
  // Output check: an instance's last-iteration transfers pass the
  // interconnect audit (capacity, conservation, exact tiling).
  auto audit = [&](std::size_t i) {
    const auto& tr = runs[i]->trainer->collectives().transfers();
    const auto report = glpfuzz::check_fleet_transfers(tr, gpusim::LinkProps::pcie());
    r.check(report.clean() && !tr.empty(),
            "fleet-train: transfer audit on " + cfgs[i].name + ": " + report.to_string());
  };
  CalibratedTimes rounds(Probe::kSerial);
  std::vector<std::vector<double>> sim(cfgs.size());
  std::uint64_t kernels = 0;
  int restarts = 0;
  const auto t_run = Clock::now();
  // Whole instance lifetimes only, so every run samples the same mix of
  // instance ages.
  while (seconds_since(t_run) < o.seconds || rounds.raw.size() % kFleetRounds != 0) {
    // Every kFleetRounds rounds each instance is audited and set up
    // afresh, outside the timed round.
    const bool renew = !rounds.raw.empty() && rounds.raw.size() % kFleetRounds == 0;
    for (std::size_t i = 0; renew && i < runs.size(); ++i) {
      GLP_REQUIRE(runs[i]->fleet->max_device_now() < kFleetSimLimitNs,
                  "fleet instance passed " << kFleetSimLimitNs / 1e9 << " s of simulated time");
      audit(i);
      runs[i].reset();
      release_free_heap();
      runs[i] = std::make_unique<FleetRun>(cfgs[i], o.seed);
      runs[i]->step_sim_ms();  // profiling iteration
      ++restarts;
    }
    double ms = 0.0;
    {
      ScopedSpan s("round");
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < runs.size(); ++i) {
        ScopedSpan sc("comm:fleet_step:" + cfgs[i].name);
        std::uint64_t kb = 0;
        for (int d = 0; d < cfgs[i].devices; ++d) kb += runs[i]->fleet->device(d).device().stats().kernels_launched;
        sim[i].push_back(runs[i]->step_sim_ms());
        for (int d = 0; d < cfgs[i].devices; ++d) kernels += runs[i]->fleet->device(d).device().stats().kernels_launched;
        kernels -= kb;
      }
      ms = ms_since(t0);
    }
    rounds.add(ms);
  }
  for (std::size_t i = 0; i < runs.size(); ++i) audit(i);
  std::printf("info %d fleet instance(s) set up afresh, every %d rounds\n", restarts, kFleetRounds);

  // One-device reference at the same per-device batch: the data-parallel
  // speedup is N x T1 / TN (sample throughput ratio).
  std::vector<double> speedups, one_dev(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    Cell ref(cfgs[i].spec, gpusim::DeviceTable::p100(), Dispatch::kGlp4nn, kern::ComputeMode::kTimingOnly,
             o.seed, false);
    ref.train_step(false);
    const double s0 = ref.sim_now_ms();
    ref.train_step(false);
    ref.train_step(false);
    one_dev[i] = (ref.sim_now_ms() - s0) / 2.0;
    speedups.push_back(cfgs[i].devices * one_dev[i] / first_steady(sim[i]));
  }

  add_host_metrics(r, setups, rounds);
  r.add("sim_speedup_geomean", geomean(speedups), "x");
  std::vector<double> sims;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    sims.push_back(first_steady(sim[i]));
    std::size_t largest = 0;
    for (const auto& b : runs[i]->trainer->plan().buckets) largest = std::max(largest, b.count);
    std::printf("info %s: %.3f sim ms/iter, 1-device %.3f ms, all-reduce %s\n", cfgs[i].name.c_str(),
                sims.back(), one_dev[i], comm::to_string(runs[i]->trainer->collectives().algo_for(largest)));
  }
  r.info("sim_ms_per_iter", geomean(sims), "ms");

  if (!o.trace) return;
  r.set_layer("gpusim.kernels_per_round", static_cast<double>(kernels) / static_cast<double>(rounds.raw.size()));
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const std::string p = "comm." + cfgs[i].name;
    const auto& tr = runs[i]->trainer->collectives().transfers();
    double bytes = 0.0;
    std::vector<std::pair<double, double>> spans;
    for (const auto& t : tr) {
      bytes += static_cast<double>(t.bytes);
      spans.emplace_back(t.start_ns, t.end_ns);
    }
    std::sort(spans.begin(), spans.end());
    double busy = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : spans) {
      if (a > hi) {
        if (hi > lo) busy += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) busy += hi - lo;
    r.set_layer(p + ".sim_ms_per_iter", first_steady(sim[i]));
    r.set_layer(p + ".exposed_ms_per_iter", first_steady(sim[i]) - one_dev[i]);
    r.set_layer(p + ".bytes_per_iter", bytes);
    r.set_layer(p + ".link_busy_ms_per_iter", busy / 1e6);
    r.set_layer(p + ".transfers_per_iter", static_cast<double>(tr.size()));
    // Direct collective calls on this configuration's bucket sizes.
    auto& engine = runs[i]->trainer->collectives();
    std::vector<double> host;
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan sp("comm:reduce:" + cfgs[i].name);
      const auto t0 = Clock::now();
      for (const auto& b : runs[i]->trainer->plan().buckets) {
        std::vector<float*> flat(static_cast<std::size_t>(cfgs[i].devices), nullptr);
        std::vector<gpusim::SimTime> ready(static_cast<std::size_t>(cfgs[i].devices));
        for (int d = 0; d < cfgs[i].devices; ++d) ready[static_cast<std::size_t>(d)] = runs[i]->fleet->device(d).device().host_now();
        engine.reduce(flat, b.count, ready, false);
      }
      runs[i]->fleet->synchronize_all();
      host.push_back(ms_since(t0));
      engine.reset();
    }
    r.set_layer(p + ".reduce_host_ms", median(host));
  }
}

// --- self-tests ----------------------------------------------------------

int run_selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const auto p100 = gpusim::DeviceTable::p100();

  // 1. The tracing dispatcher is transparent: with no extra syncs the
  //    losses are bit-identical with and without it.
  {
    const mc::NetSpec spec = mc::models::cifar10_quick();
    Cell plain(spec, p100, Dispatch::kGlp4nn, kern::ComputeMode::kNumeric, 7, false);
    Cell traced(spec, p100, Dispatch::kGlp4nn, kern::ComputeMode::kNumeric, 7, true);
    bool same = true;
    for (int i = 0; i < 3; ++i) {
      const float a = plain.train_step(false);
      const float b = traced.train_step(true);
      same = same && std::memcmp(&a, &b, sizeof a) == 0;
    }
    expect(same, "tracing dispatcher leaves CIFAR10 losses bit-identical");
  }

  // 2. Simulated metrics are exactly equal across two runs of one seed,
  //    steady iterations only (the profiling iteration's measured
  //    T_p + T_a charge is excluded). Checked in default options and, to
  //    separate the harness from the program, with a fixed overhead charge.
  auto sim_values = [&](const mc::NetSpec& spec, Dispatch d, const gpusim::DeviceProps& props,
                        const glp4nn::SchedulerOptions& opts) {
    Cell c(spec, props, d, kern::ComputeMode::kTimingOnly, 3, false, opts);
    c.fwd_bwd(false);
    const SimSample s = sim_pass(c, mc::models::tracked_conv_layers(spec.name), props);
    std::vector<double> out{s.iter_ms};
    for (const auto& [l, ms] : s.layer_ms) out.push_back(ms);
    return out;
  };
  glp4nn::SchedulerOptions fixed_charge;
  fixed_charge.overhead_charge_ms = 0.0;
  for (const auto& opts : {glp4nn::SchedulerOptions{}, fixed_charge}) {
    const bool by_default = opts.overhead_charge_ms < 0.0;
    double worst = 0.0;
    std::string where;
    for (const auto& [name, spec] : mc::models::paper_networks()) {
      for (Dispatch d : {Dispatch::kSerial, Dispatch::kGlp4nn, Dispatch::kGlp4nnDag}) {
        if (d == Dispatch::kGlp4nnDag && name != "GoogLeNet") continue;
        const auto a = sim_values(spec, d, p100, opts), b = sim_values(spec, d, p100, opts);
        for (std::size_t i = 0; i < a.size(); ++i) {
          const double rel = std::abs(a[i] - b[i]) / a[i];
          if (rel > worst) where = name + (d == Dispatch::kSerial ? " serial" : " glp4nn");
          worst = std::max(worst, rel);
        }
      }
    }
    std::printf("  largest relative difference between two runs (%s): %.3g%s%s\n",
                by_default ? "default options" : "fixed overhead charge", worst,
                where.empty() ? "" : ", at ", where.c_str());
    expect(worst == 0.0, std::string("steady sim iteration and per-layer times repeat exactly (") +
                             (by_default ? "default options" : "fixed overhead charge") + ")");
  }

  // 3. P100 per-layer speedups agree with bench_fig7_speedup's harness
  //    (both with a fixed overhead charge, so the comparison is exact).
  {
    double worst = 0.0;
    for (const auto& [name, spec] : mc::models::paper_networks()) {
      const auto tracked = mc::models::tracked_conv_layers(name);
      bench::RunConfig cfg;
      cfg.device = p100;
      cfg.scheduler = fixed_charge;
      cfg.mode = bench::Mode::kSerial;
      const auto serial = bench::run_network(spec, tracked, cfg);
      cfg.mode = bench::Mode::kGlp4nn;
      const auto glp = bench::run_network(spec, tracked, cfg);
      Cell cs(spec, p100, Dispatch::kSerial, kern::ComputeMode::kTimingOnly, 1, false);
      Cell cg(spec, p100, Dispatch::kGlp4nn, kern::ComputeMode::kTimingOnly, 1, false, fixed_charge);
      cs.fwd_bwd(false);
      cg.fwd_bwd(false);
      const SimSample ss = sim_pass(cs, tracked, p100), sg = sim_pass(cg, tracked, p100);
      for (const auto& l : tracked) {
        const double want = serial.layers.at(l).total_ms() / glp.layers.at(l).total_ms();
        const double got = ss.layer_ms.at(l) / sg.layer_ms.at(l);
        worst = std::max(worst, std::abs(got - want) / want);
      }
    }
    std::printf("  largest relative difference from bench_fig7_speedup: %.3g\n", worst);
    expect(worst <= 1e-12, "P100 per-layer speedups match bench_fig7_speedup");
  }
  std::printf("%s\n", failures ? "selftest FAILED" : "selftest passed");
  return failures ? 1 : 0;
}

void print_json(const Report& r, bool trace) {
  const auto& metrics = trace ? r.layer : r.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--selftest") return run_selftest();
      if (a == "--workload") o.workload = next();
      else if (a == "--seed") o.seed = std::stoull(next());
      else if (a == "--seconds") o.seconds = std::stod(next());
      else if (a == "--trace") o.trace = next() == "1";
      else if (a == "--spans") o.spans_path = next();
      else throw std::runtime_error("unknown argument " + a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  Report r;
  r.layer = per_layer_catalogue();
  if (o.trace) g_spans.enable();
  std::printf("workload %s, seed %llu, %.0f s, trace %d, %d host threads\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
              glp::parallel_workers());
  try {
    if (o.workload == "train-numeric") run_train_numeric(o, r);
    else if (o.workload == "paper-timing") run_paper_timing(o, r);
    else if (o.workload == "serve-open") run_serve_open(o, r);
    else if (o.workload == "fleet-train") run_fleet_train(o, r);
    else {
      std::fprintf(stderr, "error: unknown workload '%s'\n", o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  progress("measurement and checks done");
  if (o.trace && !o.spans_path.empty()) {
    if (!g_spans.write(o.spans_path)) {
      std::fprintf(stderr, "error: cannot write spans to %s\n", o.spans_path.c_str());
      return 1;
    }
    std::printf("info wrote %zu spans to %s\n", g_spans.size(), o.spans_path.c_str());
  }
  std::fflush(stdout);
  print_json(r, o.trace);
  return 0;
}
