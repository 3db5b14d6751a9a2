// Fig. 11: training the CIFAR10 network on P100 — loss curves of
// naive-Caffe vs GLP4NN-Caffe must coincide (convergence invariance).
// The paper's small residual difference came from data shuffling, which
// this reproduction eliminates (identical deterministic batches), so the
// curves here match bit for bit.
//
// Numerics run for real (ComputeMode::kNumeric), so iteration counts are
// scaled down from the paper's multi-thousand-iteration run. Caffe's
// original cifar10_quick initialisation (conv1 std 1e-4) sits on the
// log(10) plateau for hundreds of iterations — exactly as the paper's own
// figure shows — so part 2 additionally trains a two-stage Xavier variant
// whose loss visibly falls inside the scaled-down budget, again under
// both schedulers.
//
// Override part 1's scale with argv: bench_fig11_convergence [iters] [batch].

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "minicaffe/solver.hpp"

namespace {

mc::NetSpec two_stage_variant(int batch) {
  // cifar10_quick's first two stages with Xavier init: learnable within a
  // scaled-down run.
  mc::NetSpec s = mc::models::cifar10_quick(batch);
  s.name = "CIFAR10-2stage";
  std::vector<mc::LayerSpec> kept;
  for (const auto& l : s.layers) {
    if (l.name == "conv3" || l.name == "relu3" || l.name == "pool3") continue;
    kept.push_back(l);
  }
  // Rewire ip1 to pool2 and reset fillers.
  for (auto& l : kept) {
    if (l.name == "ip1") l.bottoms = {"pool2"};
    if (l.type == "Convolution" || l.type == "InnerProduct") {
      l.params.weight_filler = mc::FillerSpec::xavier();
    }
  }
  s.layers = std::move(kept);
  return s;
}

std::vector<float> train(const mc::NetSpec& spec, bool glp, int iters,
                         float lr) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  std::unique_ptr<kern::KernelDispatcher> serial;
  std::unique_ptr<glp4nn::Glp4nnEngine> engine;
  mc::ExecContext ec;
  ec.ctx = &ctx;
  if (glp) {
    engine = std::make_unique<glp4nn::Glp4nnEngine>();
    ec.dispatcher = &engine->scheduler_for(ctx);
  } else {
    serial = std::make_unique<kern::SerialDispatcher>(ctx);
    ec.dispatcher = serial.get();
  }
  mc::Net net(spec, ec);
  mc::SolverParams params;
  params.base_lr = lr;
  params.momentum = 0.9f;
  params.weight_decay = 0.004f;
  mc::SgdSolver solver(net, params);
  std::vector<float> losses;
  solver.step(iters, [&](int, float loss) { losses.push_back(loss); });
  return losses;
}

double max_curve_diff(const std::vector<float>& a, const std::vector<float>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

void print_curves(const std::vector<float>& naive, const std::vector<float>& glp) {
  const int iters = static_cast<int>(naive.size());
  bench::print_row({"iter", "Caffe", "GLP4NN"}, {7, 10, 10});
  for (int i = 0; i < iters; i += std::max(1, iters / 12)) {
    bench::print_row({std::to_string(i + 1),
                      glp::strformat("%.4f", naive[static_cast<std::size_t>(i)]),
                      glp::strformat("%.4f", glp[static_cast<std::size_t>(i)])},
                     {7, 10, 10});
  }
  std::printf("max |Caffe − GLP4NN|: %.3e (bitwise: %s)\n",
              max_curve_diff(naive, glp),
              naive == glp ? "yes" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  const int iters = argc > 1 ? std::atoi(argv[1]) : 40;
  const int batch = argc > 2 ? std::atoi(argv[2]) : 20;

  bench::print_header(glp::strformat(
      "Fig. 11a: CIFAR10 (faithful cifar10_quick) on P100 — curve "
      "coincidence (%d iters, batch %d)", iters, batch));
  {
    const mc::NetSpec spec = mc::models::cifar10_quick(batch);
    std::fprintf(stderr, "part 1: naive...\n");
    const auto naive = train(spec, false, iters, 0.001f);
    std::fprintf(stderr, "part 1: glp4nn...\n");
    const auto glp = train(spec, true, iters, 0.001f);
    print_curves(naive, glp);
    std::printf(
        "(Caffe's 1e-4 conv1 initialisation plateaus near log(10)=2.303 for\n"
        "hundreds of iterations — as in the paper's own Fig. 11 — so this\n"
        "part demonstrates *coincidence*; part 2 demonstrates descent.)\n");
  }

  bench::print_header(
      "Fig. 11b: two-stage Xavier variant — loss descends identically "
      "under both schedulers (60 iters, batch 25)");
  {
    const mc::NetSpec spec = two_stage_variant(25);
    std::fprintf(stderr, "part 2: naive...\n");
    const auto naive = train(spec, false, 60, 0.01f);
    std::fprintf(stderr, "part 2: glp4nn...\n");
    const auto glp = train(spec, true, 60, 0.01f);
    print_curves(naive, glp);
    std::printf("loss fell from %.3f to %.3f under both schedulers.\n",
                naive.front(), naive.back());
  }

  std::printf(
      "\nExpected shape (paper Fig. 11 / §3.3.1): the naive and GLP4NN\n"
      "curves coincide — the optimisation is convergence-invariant.\n");
  return 0;
}
