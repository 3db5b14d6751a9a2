#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "common/rng.hpp"
#include "kernels/cpu_math.hpp"

namespace {

namespace cpu = kern::cpu;

// Naive reference gemm for cross-checking.
void ref_gemm(bool ta, bool tb, int m, int n, int k, float alpha, const float* a,
              int lda, const float* b, int ldb, float beta, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * ldc + j] = alpha * static_cast<float>(acc) + beta * c[i * ldc + j];
    }
  }
}

struct GemmCase {
  bool ta, tb;
  int m, n, k;
  float alpha, beta;
};

class GemmVsReference : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmVsReference, Matches) {
  const GemmCase& gc = GetParam();
  glp::Rng rng(99);
  const int lda = gc.ta ? gc.m : gc.k;
  const int ldb = gc.tb ? gc.k : gc.n;
  std::vector<float> a(static_cast<std::size_t>(gc.ta ? gc.k : gc.m) * lda);
  std::vector<float> b(static_cast<std::size_t>(gc.tb ? gc.n : gc.k) * ldb);
  std::vector<float> c(static_cast<std::size_t>(gc.m) * gc.n);
  for (float& v : a) v = rng.uniform(-1, 1);
  for (float& v : b) v = rng.uniform(-1, 1);
  for (float& v : c) v = rng.uniform(-1, 1);
  std::vector<float> expect = c;

  cpu::gemm(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), lda, b.data(),
            ldb, gc.beta, c.data(), gc.n);
  ref_gemm(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), lda, b.data(),
           ldb, gc.beta, expect.data(), gc.n);

  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], expect[i], 1e-3f * (std::abs(expect[i]) + 1.0f))
        << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmVsReference,
    ::testing::Values(GemmCase{false, false, 3, 4, 5, 1.0f, 0.0f},
                      GemmCase{false, true, 3, 4, 5, 1.0f, 0.0f},
                      GemmCase{true, false, 3, 4, 5, 1.0f, 0.0f},
                      GemmCase{true, true, 3, 4, 5, 1.0f, 0.0f},
                      GemmCase{false, false, 1, 1, 1, 2.0f, 3.0f},
                      GemmCase{false, false, 17, 23, 31, 0.5f, 1.0f},
                      GemmCase{false, true, 16, 2, 800, 1.0f, 1.0f},
                      GemmCase{true, false, 20, 576, 25, 1.0f, 0.0f},
                      GemmCase{false, false, 64, 1, 128, 1.0f, 1.0f},
                      GemmCase{false, false, 128, 130, 64, 1.0f, 0.0f},
                      GemmCase{false, false, 0, 4, 4, 1.0f, 0.0f},
                      GemmCase{false, false, 4, 4, 0, 1.0f, 0.5f}));

// Exhaustive sweep: every transpose combination crossed with edge and
// non-trivial sizes (0, 1, prime, microtile-sized) and the alpha/beta
// special cases the kernel dispatches on (0 skips the product / the C
// read, 1 skips the scale).
TEST(Gemm, ExhaustiveOracle) {
  const int sizes[] = {0, 1, 3, 17, 64};
  const float scales[] = {0.0f, 1.0f, 0.5f};
  glp::Rng rng(1234);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int m : sizes) {
        for (int n : sizes) {
          for (int k : sizes) {
            const int lda = std::max(1, ta ? m : k);
            const int ldb = std::max(1, tb ? k : n);
            const int ldc = std::max(1, n);
            std::vector<float> a(static_cast<std::size_t>(std::max(1, ta ? k : m)) * lda);
            std::vector<float> b(static_cast<std::size_t>(std::max(1, tb ? n : k)) * ldb);
            std::vector<float> c0(static_cast<std::size_t>(std::max(1, m)) * ldc);
            for (float& v : a) v = rng.uniform(-1, 1);
            for (float& v : b) v = rng.uniform(-1, 1);
            for (float& v : c0) v = rng.uniform(-1, 1);
            for (float alpha : scales) {
              for (float beta : scales) {
                std::vector<float> c = c0, expect = c0;
                cpu::gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                          beta, c.data(), ldc);
                ref_gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                         beta, expect.data(), ldc);
                for (std::size_t i = 0; i < c.size(); ++i) {
                  ASSERT_NEAR(c[i], expect[i], 1e-3f * (std::abs(expect[i]) + 1.0f))
                      << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
                      << " k=" << k << " alpha=" << alpha << " beta=" << beta
                      << " at " << i;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(Gemm, ParallelPathMatchesSerial) {
  // Cross the parallel threshold and check determinism + correctness.
  glp::Rng rng(7);
  const int m = 128, n = 128, k = 64;
  std::vector<float> a(static_cast<std::size_t>(m) * k), b(static_cast<std::size_t>(k) * n);
  for (float& v : a) v = rng.uniform(-1, 1);
  for (float& v : b) v = rng.uniform(-1, 1);
  std::vector<float> c1(static_cast<std::size_t>(m) * n, 0.0f), c2 = c1;
  cpu::gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c1.data(), n);
  cpu::gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c2.data(), n);
  EXPECT_EQ(c1, c2);  // bitwise deterministic
  std::vector<float> expect(c1.size(), 0.0f);
  ref_gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, expect.data(), n);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    ASSERT_NEAR(c1[i], expect[i], 1e-3f);
  }
}

// GEMV (n == 1): y = alpha * op(A) * x + beta * y in both transposes of A,
// with x stored as a column (ldb 1) or a row (trans_b) and y contiguous or
// strided, at a parallel fully-connected shape and at tiny ones.
TEST(Gemm, GemvMatchesReference) {
  struct Shape {
    int m, k;
  };
  const Shape shapes[] = {{256, 2048}, {1, 1}, {3, 5}, {7, 2}, {10, 64}};
  glp::Rng rng(4242);
  for (const Shape& s : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        for (int ldc : {1, 3}) {
          for (float beta : {0.0f, 1.5f}) {
            const int lda = ta ? s.m : s.k;
            const int ldb = tb ? s.k : 1;
            std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
            std::vector<float> x(static_cast<std::size_t>(s.k));
            std::vector<float> y(static_cast<std::size_t>(s.m) * ldc);
            for (float& v : a) v = rng.uniform(-1, 1);
            for (float& v : x) v = rng.uniform(-1, 1);
            for (float& v : y) v = rng.uniform(-1, 1);
            std::vector<float> expect = y;
            cpu::gemm(ta, tb, s.m, 1, s.k, 0.5f, a.data(), lda, x.data(), ldb,
                      beta, y.data(), ldc);
            ref_gemm(ta, tb, s.m, 1, s.k, 0.5f, a.data(), lda, x.data(), ldb,
                     beta, expect.data(), ldc);
            for (std::size_t i = 0; i < y.size(); ++i) {
              ASSERT_NEAR(y[i], expect[i], 1e-3f * (std::abs(expect[i]) + 1.0f))
                  << "m=" << s.m << " k=" << s.k << " ta=" << ta << " tb=" << tb
                  << " ldc=" << ldc << " beta=" << beta << " at " << i;
            }
          }
        }
      }
    }
  }
}

// --- vector ops -----------------------------------------------------------------

TEST(VectorOps, Axpy) {
  std::vector<float> x = {1, 2, 3}, y = {10, 20, 30};
  cpu::axpy(3, 2.0f, x.data(), y.data());
  EXPECT_EQ(y, (std::vector<float>{12, 24, 36}));
}

TEST(VectorOps, ScalAndFill) {
  std::vector<float> x = {1, 2, 3};
  cpu::scal(3, -1.0f, x.data());
  EXPECT_EQ(x, (std::vector<float>{-1, -2, -3}));
  cpu::fill(3, 7.0f, x.data());
  EXPECT_EQ(x, (std::vector<float>{7, 7, 7}));
}

TEST(VectorOps, SumAndSquaredDistance) {
  std::vector<float> x = {1, 2, 3}, y = {2, 2, 5};
  EXPECT_DOUBLE_EQ(cpu::sum(3, x.data()), 6.0);
  EXPECT_DOUBLE_EQ(cpu::squared_distance(3, x.data(), y.data()), 5.0);
}

TEST(VectorOps, ReduceLanesAccumulatesInOrder) {
  // dst += lane0 + lane1 in ascending lane order.
  std::vector<float> src = {1, 2, /*lane1*/ 10, 20};
  std::vector<float> dst = {100, 200};
  cpu::reduce_lanes(2, 2, src.data(), dst.data());
  EXPECT_EQ(dst, (std::vector<float>{111, 222}));
}

// --- im2col / col2im -------------------------------------------------------------

TEST(Im2col, IdentityFor1x1Kernel) {
  std::vector<float> im = {1, 2, 3, 4};
  std::vector<float> col(4, 0.0f);
  cpu::im2col(im.data(), 1, 2, 2, 1, 1, 0, 0, 1, 1, col.data());
  EXPECT_EQ(col, im);
}

TEST(Im2col, KnownSmallCase) {
  // 1x3x3 image, 2x2 kernel, stride 1, no pad → 4 rows x 4 cols.
  std::vector<float> im = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(16, -1.0f);
  cpu::im2col(im.data(), 1, 3, 3, 2, 2, 0, 0, 1, 1, col.data());
  // Row 0 = kernel offset (0,0): top-left of each window.
  EXPECT_EQ(std::vector<float>(col.begin(), col.begin() + 4),
            (std::vector<float>{1, 2, 4, 5}));
  // Row 3 = kernel offset (1,1): bottom-right of each window.
  EXPECT_EQ(std::vector<float>(col.begin() + 12, col.end()),
            (std::vector<float>{5, 6, 8, 9}));
}

TEST(Im2col, PaddingProducesZeros) {
  std::vector<float> im = {5};
  // 1x1 image, 3x3 kernel, pad 1 → 1 output pixel, 9 rows.
  std::vector<float> col(9, -1.0f);
  cpu::im2col(im.data(), 1, 1, 1, 3, 3, 1, 1, 1, 1, col.data());
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(col[static_cast<std::size_t>(i)], i == 4 ? 5.0f : 0.0f);
  }
}

TEST(Col2im, AdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for any x, y — the defining property
  // of the gradient scatter.
  glp::Rng rng(11);
  const int C = 2, H = 5, W = 4, K = 3, pad = 1, stride = 2;
  const int out_h = cpu::conv_out_size(H, K, pad, stride);
  const int out_w = cpu::conv_out_size(W, K, pad, stride);
  const std::size_t im_size = static_cast<std::size_t>(C) * H * W;
  const std::size_t col_size = static_cast<std::size_t>(C) * K * K * out_h * out_w;

  std::vector<float> x(im_size), y(col_size), col(col_size, 0.0f), back(im_size, 0.0f);
  for (float& v : x) v = rng.uniform(-1, 1);
  for (float& v : y) v = rng.uniform(-1, 1);

  cpu::im2col(x.data(), C, H, W, K, K, pad, pad, stride, stride, col.data());
  cpu::col2im(y.data(), C, H, W, K, K, pad, pad, stride, stride, back.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col_size; ++i) lhs += static_cast<double>(col[i]) * y[i];
  for (std::size_t i = 0; i < im_size; ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(ConvOutSize, MatchesFormula) {
  EXPECT_EQ(cpu::conv_out_size(227, 11, 0, 4), 55);  // CaffeNet conv1
  EXPECT_EQ(cpu::conv_out_size(32, 5, 2, 1), 32);    // CIFAR10 conv1
  EXPECT_EQ(cpu::conv_out_size(28, 5, 0, 1), 24);    // Siamese conv1
}

// --- bias --------------------------------------------------------------------------

TEST(AddBias, PerChannel) {
  std::vector<float> out = {0, 0, 0, 0};
  std::vector<float> bias = {1, 2};
  cpu::add_bias(2, 2, bias.data(), out.data());
  EXPECT_EQ(out, (std::vector<float>{1, 1, 2, 2}));
}

// --- pooling -----------------------------------------------------------------------

TEST(MaxPool, ForwardSelectsMaximaAndMask) {
  // 1x4x4 plane, 2x2 kernel stride 2.
  std::vector<float> in = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  std::vector<float> out(4);
  std::vector<int> mask(4);
  cpu::max_pool_forward(in.data(), 1, 4, 4, 2, 2, 0, 2, 2, out.data(), mask.data());
  EXPECT_EQ(out, (std::vector<float>{6, 8, 14, 16}));
  EXPECT_EQ(mask, (std::vector<int>{5, 7, 13, 15}));
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  std::vector<float> grad_out = {1, 2, 3, 4};
  std::vector<int> mask = {5, 7, 13, 15};
  std::vector<float> grad_in(16, 0.0f);
  cpu::max_pool_backward(grad_out.data(), mask.data(), 1, 2, 2, 4, 4,
                         grad_in.data());
  EXPECT_EQ(grad_in[5], 1.0f);
  EXPECT_EQ(grad_in[7], 2.0f);
  EXPECT_EQ(grad_in[13], 3.0f);
  EXPECT_EQ(grad_in[15], 4.0f);
  EXPECT_EQ(grad_in[0], 0.0f);
}

TEST(AvePool, ForwardAverages) {
  std::vector<float> in = {2, 4, 6, 8};
  std::vector<float> out(1);
  cpu::ave_pool_forward(in.data(), 1, 2, 2, 2, 2, 0, 1, 1, out.data());
  EXPECT_FLOAT_EQ(out[0], 5.0f);
}

TEST(AvePool, BackwardSpreadsEvenly) {
  std::vector<float> grad_out = {4.0f};
  std::vector<float> grad_in(4, 0.0f);
  cpu::ave_pool_backward(grad_out.data(), 1, 2, 2, 2, 2, 0, 1, 1, grad_in.data());
  for (float g : grad_in) EXPECT_FLOAT_EQ(g, 1.0f);
}

TEST(MaxPool, CeilModeWindowClamping) {
  // 3x3 plane, 2x2 kernel stride 2, ceil out = 2: last window clipped.
  std::vector<float> in = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> out(4);
  std::vector<int> mask(4);
  cpu::max_pool_forward(in.data(), 1, 3, 3, 2, 2, 0, 2, 2, out.data(), mask.data());
  EXPECT_EQ(out, (std::vector<float>{5, 6, 8, 9}));
}

// --- activations ---------------------------------------------------------------------

TEST(Relu, ForwardAndSlope) {
  std::vector<float> in = {-2, -1, 0, 1, 2};
  std::vector<float> out(5);
  cpu::relu_forward(5, in.data(), out.data(), 0.0f);
  EXPECT_EQ(out, (std::vector<float>{0, 0, 0, 1, 2}));
  cpu::relu_forward(5, in.data(), out.data(), 0.1f);
  EXPECT_FLOAT_EQ(out[0], -0.2f);
}

TEST(Relu, BackwardMasksBySign) {
  std::vector<float> in = {-1, 2}, og = {5, 7}, ig(2);
  cpu::relu_backward(2, in.data(), og.data(), ig.data(), 0.0f);
  EXPECT_EQ(ig, (std::vector<float>{0, 7}));
}

TEST(Sigmoid, ForwardValuesAndBackwardIdentity) {
  std::vector<float> in = {0.0f}, out(1);
  cpu::sigmoid_forward(1, in.data(), out.data());
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  std::vector<float> og = {1.0f}, ig(1);
  cpu::sigmoid_backward(1, out.data(), og.data(), ig.data());
  EXPECT_FLOAT_EQ(ig[0], 0.25f);  // y(1-y) at y=0.5
}

TEST(Tanh, ForwardBackward) {
  std::vector<float> in = {0.0f, 100.0f}, out(2);
  cpu::tanh_forward(2, in.data(), out.data());
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_NEAR(out[1], 1.0f, 1e-6);
  std::vector<float> og = {2.0f, 2.0f}, ig(2);
  cpu::tanh_backward(2, out.data(), og.data(), ig.data());
  EXPECT_FLOAT_EQ(ig[0], 2.0f);
  EXPECT_NEAR(ig[1], 0.0f, 1e-5);
}

// --- LRN -----------------------------------------------------------------------------

TEST(Lrn, NormalisesAcrossChannels) {
  // 3 channels, 1 pixel, local_size 3, k=1: s_c = 1 + α/3 Σ x².
  std::vector<float> in = {1, 2, 3};
  std::vector<float> scale(3), out(3);
  cpu::lrn_forward(in.data(), 3, 1, 1, 3, 3.0f, 0.75f, 1.0f, scale.data(), out.data());
  EXPECT_NEAR(scale[0], 1.0f + 1.0f * (1 + 4), 1e-5);       // c=0 window {0,1}
  EXPECT_NEAR(scale[1], 1.0f + 1.0f * (1 + 4 + 9), 1e-5);   // full window
  EXPECT_NEAR(out[1], 2.0f * std::pow(15.0f, -0.75f), 1e-5);
}

TEST(Lrn, TrivialWhenAlphaZero) {
  std::vector<float> in = {1, 2, 3, 4};
  std::vector<float> scale(4), out(4);
  cpu::lrn_forward(in.data(), 2, 1, 2, 3, 0.0f, 0.75f, 1.0f, scale.data(), out.data());
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)], in[static_cast<std::size_t>(i)]);
}

// --- softmax / loss --------------------------------------------------------------------

TEST(Softmax, RowsSumToOne) {
  glp::Rng rng(5);
  const int rows = 7, classes = 11;
  std::vector<float> in(static_cast<std::size_t>(rows) * classes), prob(in.size());
  for (float& v : in) v = rng.uniform(-5, 5);
  cpu::softmax_forward(rows, classes, in.data(), prob.data());
  for (int r = 0; r < rows; ++r) {
    double s = 0.0;
    for (int j = 0; j < classes; ++j) {
      const float p = prob[static_cast<std::size_t>(r) * classes + j];
      EXPECT_GT(p, 0.0f);
      s += p;
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Softmax, InvariantToRowShift) {
  std::vector<float> a = {1, 2, 3}, b = {101, 102, 103};
  std::vector<float> pa(3), pb(3);
  cpu::softmax_forward(1, 3, a.data(), pa.data());
  cpu::softmax_forward(1, 3, b.data(), pb.data());
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(pa[static_cast<std::size_t>(i)], pb[static_cast<std::size_t>(i)], 1e-6);
}

TEST(SoftmaxLoss, PerfectPredictionNearZero) {
  std::vector<float> prob = {0.999f, 0.0005f, 0.0005f};
  std::vector<float> label = {0};
  EXPECT_NEAR(cpu::softmax_loss(1, 3, prob.data(), label.data()), 0.0f, 2e-3);
}

TEST(SoftmaxLoss, UniformIsLogClasses) {
  std::vector<float> prob(10, 0.1f);
  std::vector<float> label = {4};
  EXPECT_NEAR(cpu::softmax_loss(1, 10, prob.data(), label.data()),
              std::log(10.0f), 1e-5);
}

TEST(SoftmaxLoss, RejectsOutOfRangeLabel) {
  std::vector<float> prob = {0.5f, 0.5f};
  std::vector<float> label = {7};
  EXPECT_THROW(cpu::softmax_loss(1, 2, prob.data(), label.data()),
               glp::InvalidArgument);
}

TEST(SoftmaxLossBackward, GradientIsProbMinusOneHot) {
  std::vector<float> prob = {0.2f, 0.3f, 0.5f};
  std::vector<float> label = {2};
  std::vector<float> grad(3);
  cpu::softmax_loss_backward(1, 3, prob.data(), label.data(), 1.0f, grad.data());
  EXPECT_FLOAT_EQ(grad[0], 0.2f);
  EXPECT_FLOAT_EQ(grad[1], 0.3f);
  EXPECT_FLOAT_EQ(grad[2], -0.5f);
}

TEST(Accuracy, CountsArgmaxHits) {
  std::vector<float> scores = {0.9f, 0.1f, /*row1*/ 0.2f, 0.8f};
  std::vector<float> labels = {0, 0};
  EXPECT_FLOAT_EQ(cpu::accuracy(2, 2, scores.data(), labels.data()), 0.5f);
}

// --- dropout -----------------------------------------------------------------------------

TEST(Dropout, AppliesMaskAndScale) {
  std::vector<float> in = {1, 2, 3, 4}, mask = {1, 0, 1, 0}, out(4);
  cpu::dropout_forward(4, in.data(), mask.data(), 2.0f, out.data());
  EXPECT_EQ(out, (std::vector<float>{2, 0, 6, 0}));
}

}  // namespace
