// Bit-determinism of the host math kernels across thread counts.
//
// The GLP4NN convergence-invariance contract requires numerics to be
// independent of how work is scheduled. For the host kernels that means:
// the same input must produce bit-identical output whether the pool has
// 1, 2, or many workers (chunk and tile boundaries are functions of the
// problem shape only). These tests sweep glp::set_parallel_workers and
// compare results bitwise against the single-worker run.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "kernels/cpu_math.hpp"

namespace {

namespace cpu = kern::cpu;

const int kWorkerSweep[] = {1, 2, 4};

std::vector<float> random_vec(std::size_t n, unsigned seed) {
  glp::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform(-1, 1);
  return v;
}

/// Run `fn` (which writes its output into the vector it returns) at each
/// worker count and require bitwise equality with the 1-worker result.
template <typename F>
void expect_bitwise_invariant(const F& fn) {
  const std::vector<float> baseline = [&] {
    glp::set_parallel_workers(1);
    return fn();
  }();
  for (int workers : kWorkerSweep) {
    glp::set_parallel_workers(workers);
    const std::vector<float> out = fn();
    ASSERT_EQ(out.size(), baseline.size());
    ASSERT_EQ(std::memcmp(out.data(), baseline.data(),
                          baseline.size() * sizeof(float)),
              0)
        << "outputs differ bitwise at " << workers << " workers";
  }
  glp::set_parallel_workers(1);
}

TEST(Determinism, GemmTiledParallel) {
  // Big enough to cross both the tiled and the parallel thresholds and
  // to span several MC x NC tiles (including ragged edge tiles).
  const int m = 200, n = 300, k = 150;
  const auto a = random_vec(static_cast<std::size_t>(m) * k, 11);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, 12);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      expect_bitwise_invariant([&] {
        std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
        cpu::gemm(ta, tb, m, n, k, 1.0f, a.data(), ta ? m : k, b.data(),
                  tb ? k : n, 0.0f, c.data(), n);
        return c;
      });
    }
  }
}

TEST(Determinism, GemmSingleRowParallelizesOverColumns) {
  // The m=1 fully-connected shape: work is spread over column chunks, so
  // this exercises the skinny-m path's worker-count invariance.
  const int n = 4096, k = 300;
  const auto a = random_vec(k, 21);
  const auto b = random_vec(static_cast<std::size_t>(n) * k, 22);
  expect_bitwise_invariant([&] {
    std::vector<float> c(n, 0.0f);
    cpu::gemm(false, true, 1, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
              c.data(), n);
    return c;
  });
}

TEST(Determinism, GemvBothTransposes) {
  // The n=1 products (fully-connected layers of one sample, bias
  // gradients) run as 1 x m column-partitioned products.
  const int m = 256, k = 2048;
  const auto a = random_vec(static_cast<std::size_t>(m) * k, 41);
  const auto x = random_vec(k, 42);
  const auto y0 = random_vec(m, 43);
  for (bool ta : {false, true}) {
    expect_bitwise_invariant([&] {
      std::vector<float> y = y0;
      cpu::gemm(ta, false, m, 1, k, 0.5f, a.data(), ta ? m : k, x.data(), 1,
                1.0f, y.data(), 1);
      return y;
    });
  }
}

TEST(Determinism, GemmAccumulatingBeta) {
  const int m = 96, n = 160, k = 64;
  const auto a = random_vec(static_cast<std::size_t>(m) * k, 31);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, 32);
  const auto c0 = random_vec(static_cast<std::size_t>(m) * n, 33);
  expect_bitwise_invariant([&] {
    std::vector<float> c = c0;
    cpu::gemm(false, false, m, n, k, 0.5f, a.data(), k, b.data(), n, 0.75f,
              c.data(), n);
    return c;
  });
}

TEST(Determinism, Im2colAndCol2im) {
  const int c = 8, h = 33, w = 29, kh = 3, kw = 5, pad = 2, stride = 2;
  const int oh = cpu::conv_out_size(h, kh, pad, stride);
  const int ow = cpu::conv_out_size(w, kw, pad, stride);
  const auto im = random_vec(static_cast<std::size_t>(c) * h * w, 41);
  const std::size_t col_size = static_cast<std::size_t>(c) * kh * kw * oh * ow;

  expect_bitwise_invariant([&] {
    std::vector<float> col(col_size, -1.0f);
    cpu::im2col(im.data(), c, h, w, kh, kw, pad, pad, stride, stride,
                col.data());
    return col;
  });

  std::vector<float> col(col_size);
  glp::Rng rng(42);
  for (float& x : col) x = rng.uniform(-1, 1);
  expect_bitwise_invariant([&] {
    std::vector<float> grad(static_cast<std::size_t>(c) * h * w, 0.0f);
    cpu::col2im(col.data(), c, h, w, kh, kw, pad, pad, stride, stride,
                grad.data());
    return grad;
  });
}

TEST(Determinism, Pooling) {
  const int c = 24, h = 40, w = 40, kernel = 3, stride = 2, pad = 1;
  const int oh = cpu::conv_out_size(h, kernel, pad, stride);
  const int ow = cpu::conv_out_size(w, kernel, pad, stride);
  const auto in = random_vec(static_cast<std::size_t>(c) * h * w, 51);

  expect_bitwise_invariant([&] {
    std::vector<float> out(static_cast<std::size_t>(c) * oh * ow, 0.0f);
    std::vector<int> mask(out.size());
    cpu::max_pool_forward(in.data(), c, h, w, kernel, stride, pad, oh, ow,
                          out.data(), mask.data());
    return out;
  });
  expect_bitwise_invariant([&] {
    std::vector<float> out(static_cast<std::size_t>(c) * oh * ow, 0.0f);
    cpu::ave_pool_forward(in.data(), c, h, w, kernel, stride, pad, oh, ow,
                          out.data());
    return out;
  });
}

TEST(Determinism, ElementwiseAndReductions) {
  const std::size_t count = 1u << 17;  // crosses the elementwise grain
  const auto x = random_vec(count, 61);
  const auto dy = random_vec(count, 62);

  expect_bitwise_invariant([&] {
    std::vector<float> y(count);
    cpu::relu_forward(count, x.data(), y.data(), 0.1f);
    return y;
  });
  expect_bitwise_invariant([&] {
    std::vector<float> y(count);
    cpu::sigmoid_forward(count, x.data(), y.data());
    return y;
  });
  expect_bitwise_invariant([&] {
    std::vector<float> y = dy;
    cpu::axpy(count, 0.37f, x.data(), y.data());
    return y;
  });
  // Per-channel reductions (serial accumulation order inside one chunk).
  const int num = 4, channels = 32, spatial = 1024;
  expect_bitwise_invariant([&] {
    std::vector<float> mean(channels, 0.0f);
    cpu::channel_mean(num, channels, spatial, x.data(), mean.data());
    return mean;
  });
}

TEST(Determinism, SoftmaxRows) {
  const int rows = 512, classes = 257;
  const auto in = random_vec(static_cast<std::size_t>(rows) * classes, 71);
  expect_bitwise_invariant([&] {
    std::vector<float> prob(static_cast<std::size_t>(rows) * classes);
    cpu::softmax_forward(rows, classes, in.data(), prob.data());
    return prob;
  });
}

}  // namespace
