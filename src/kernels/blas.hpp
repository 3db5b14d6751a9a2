#pragma once
// Simulated cuBLAS-like kernels. Each wrapper picks a launch
// configuration the way the real library's heuristics would (tile size by
// problem shape, register/shared-memory footprint per tile), attaches an
// analytic cost, and launches on the given stream. In numeric mode the
// host math runs once the kernel has completed (see gpusim/engine.hpp).

#include "kernels/launcher.hpp"

namespace kern {

/// Tile variants the sgemm heuristic chooses between. Exposed so tests can
/// pin expectations on the selection logic.
struct GemmTile {
  int tile_m = 32;
  int tile_n = 32;
  unsigned threads = 64;
  int regs = 55;
  std::size_t smem = 4 * 1024;
  const char* tag = "32x32";
};

/// cuBLAS-like tile selection by output shape.
GemmTile select_gemm_tile(int m, int n);

/// C = alpha * op(A) * op(B) + beta * C (row-major).
std::uint64_t sgemm(const Launcher& launcher, bool trans_a, bool trans_b, int m,
                    int n, int k, float alpha, const float* a, int lda,
                    const float* b, int ldb, float beta, float* c, int ldc);

/// y = alpha · op(A)·x + beta · y (row-major A [m x n]).
std::uint64_t sgemv(const Launcher& launcher, bool trans_a, int m, int n,
                    float alpha, const float* a, int lda, const float* x,
                    float beta, float* y);

/// y += alpha * x
std::uint64_t saxpy(const Launcher& launcher, std::size_t count, float alpha,
                    const float* x, float* y);

/// x *= alpha
std::uint64_t sscal(const Launcher& launcher, std::size_t count, float alpha,
                    float* x);

/// x[i] = value
std::uint64_t sfill(const Launcher& launcher, std::size_t count, float value,
                    float* x);

/// out[c, :] += bias[c] over a [channels x spatial] map.
std::uint64_t add_bias(const Launcher& launcher, int channels, int spatial,
                       const float* bias, float* out);

/// Fused C = A·B then C[i, :] += bias[i] — one launch instead of two
/// (kernel-fusion extension; paper §6 future work). Row i of C is an
/// output channel, so bias is indexed by row.
std::uint64_t sgemm_bias_fused(const Launcher& launcher, int m, int n, int k,
                               const float* a, int lda, const float* b, int ldb,
                               const float* bias, float* c, int ldc);

/// sgemm_bias_fused with a ReLU epilogue: C = relu(A·B + bias), where
/// relu keeps `negative_slope`·x for negative x (leaky variant). Used by
/// the DAG scheduler's elementwise-fusion pass to absorb an in-place
/// activation that immediately follows a conv/fc GEMM. The epilogue is
/// elementwise, so applying it per GEMM region produces bit-identical
/// results to a separate whole-blob activation kernel. Assumes the C
/// region is contiguous (ldc == n), like the bias epilogue.
std::uint64_t sgemm_bias_relu_fused(const Launcher& launcher, int m, int n,
                                    int k, const float* a, int lda,
                                    const float* b, int ldb, const float* bias,
                                    float* c, int ldc, float negative_slope);

/// Fused inner-product forward with ReLU epilogue, one launch for
/// C = relu(A·Bᵀ + ones·bias): the batched fc GEMM, its rank-1 bias
/// GEMM, and the following in-place activation. The functor runs the
/// exact same three host ops the unfused path runs, in the same order,
/// so results are bit-identical.
std::uint64_t ip_bias_relu_fused(const Launcher& launcher, int m, int n, int k,
                                 const float* a, int lda, const float* b,
                                 int ldb, const float* ones, const float* bias,
                                 float* c, int ldc, float negative_slope);

/// SGD with momentum: h = momentum*h + lr*grad; param -= h.
std::uint64_t sgd_update(const Launcher& launcher, std::size_t count, float lr,
                         float momentum, const float* grad, float* history,
                         float* param);

/// Nesterov accelerated gradient (Caffe formulation):
/// h' = momentum*h + lr*grad; param -= (1+momentum)*h' − momentum*h.
std::uint64_t nesterov_update(const Launcher& launcher, std::size_t count,
                              float lr, float momentum, const float* grad,
                              float* history, float* param);

/// AdaGrad: h += grad²; param -= lr*grad / (sqrt(h) + eps).
std::uint64_t adagrad_update(const Launcher& launcher, std::size_t count,
                             float lr, float eps, const float* grad,
                             float* history, float* param);

/// dst[i] += Σ_lanes src[lane*count + i] (canonical ascending-lane order).
std::uint64_t reduce_lanes(const Launcher& launcher, int lanes,
                           std::size_t count, const float* src, float* dst);

}  // namespace kern
