// Packed-panel tiled GEMM with a register-blocked microkernel.
//
// The output C is cut into an MC x NC tile grid; each tile is owned by
// exactly one parallel_for chunk, accumulates its full k extent in a
// local buffer with a fixed ascending k order, and is written back once.
// The tile grid and the traversal order inside a tile depend only on the
// problem shape — never on the worker count — so results are
// bit-identical for any GLP_NUM_THREADS (the convergence-invariance
// contract the differential fuzz harness enforces).
//
// Panels of A (MR-row slivers, k-major) and B (NR-column slivers,
// k-major) are packed per tile into thread-local scratch so the
// microkernel streams both operands contiguously; packing B once per
// (ic, jc) tile instead of once per jc duplicates some work but keeps
// tiles fully independent (no sharing, no barriers, no ordering hazards).

#include <algorithm>
#include <cstddef>
#include <memory>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "kernels/cpu_math.hpp"

#define GLP_RESTRICT __restrict__

namespace kern::cpu {

namespace {

// Register microtile: MR x NR accumulators must fit the vector register
// file with room for the A broadcast and B loads, so the block scales
// with the SIMD width this translation unit is compiled for (see
// GLP4NN_NATIVE_KERNELS in the top-level CMakeLists).
#if defined(__AVX512F__)
constexpr int MR = 8;   // 16 zmm accumulators of 16 lanes
constexpr int NR = 32;
#elif defined(__AVX2__)
constexpr int MR = 4;   // 8 ymm accumulators of 8 lanes
constexpr int NR = 16;
#else
constexpr int MR = 4;   // 8 xmm accumulators of 4 lanes (SSE2 baseline)
constexpr int NR = 8;
#endif
// Cache blocking: MC x KC A-panel (~64 KiB) and KC x NC B-panel
// (~128 KiB) stay L2-resident; MC and NC are multiples of MR and NR so
// packed panels need no edge logic beyond zero padding.
constexpr int MC = 64;
constexpr int NC = 128;
constexpr int KC = 256;

// Below this many multiply-adds a parallel dispatch costs more than it
// saves (same constant the seed used).
constexpr std::size_t kParallelWork = 1u << 18;
// Below this the packing overhead outweighs the microkernel win and the
// plain register-striding loops are faster.
constexpr std::size_t kTiledWork = 1u << 14;

// Left uninitialized: a tile writes every element it reads, and a
// small product touches only the pages its panels cover, so a pool
// thread's resident set grows with the GEMMs it actually runs.
struct Scratch {
  std::unique_ptr<float[]> a{new float[std::size_t{MC} * KC]};  // MR-sliver packed
  std::unique_ptr<float[]> b{new float[std::size_t{KC} * NC]};  // NR-sliver packed
  std::unique_ptr<float[]> c{new float[std::size_t{MC} * NC]};  // microtile-major
};

Scratch& tls_scratch() {
  thread_local Scratch s;
  return s;
}

/// ct (MR x NR, row-major) += Apanel(kc x MR) * Bpanel(kc x NR).
inline void micro_kernel(int kc, const float* GLP_RESTRICT ap,
                         const float* GLP_RESTRICT bp,
                         float* GLP_RESTRICT ct) {
  float acc[MR * NR];
  for (int x = 0; x < MR * NR; ++x) acc[x] = ct[x];
  for (int p = 0; p < kc; ++p) {
    const float* a = ap + static_cast<std::size_t>(p) * MR;
    const float* b = bp + static_cast<std::size_t>(p) * NR;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r];
      for (int j = 0; j < NR; ++j) acc[r * NR + j] += av * b[j];
    }
  }
  for (int x = 0; x < MR * NR; ++x) ct[x] = acc[x];
}

/// Pack op(A)[i0 : i0+m_sub, p0 : p0+kc] into MR-row slivers, k-major:
/// ap[ib*kc*MR + p*MR + r] = op(A)(i0+ib*MR+r, p0+p), zero-padded rows.
void pack_a(bool trans_a, const float* GLP_RESTRICT a, int lda, int i0, int p0,
            int m_sub, int kc, float* GLP_RESTRICT ap) {
  const int n_ib = (m_sub + MR - 1) / MR;
  for (int ib = 0; ib < n_ib; ++ib) {
    float* dst = ap + static_cast<std::size_t>(ib) * kc * MR;
    const int mr = std::min(MR, m_sub - ib * MR);
    if (!trans_a) {
      for (int r = 0; r < mr; ++r) {
        const float* src =
            a + static_cast<std::size_t>(i0 + ib * MR + r) * lda + p0;
        for (int p = 0; p < kc; ++p) dst[p * MR + r] = src[p];
      }
    } else {
      for (int p = 0; p < kc; ++p) {
        const float* src =
            a + static_cast<std::size_t>(p0 + p) * lda + i0 + ib * MR;
        for (int r = 0; r < mr; ++r) dst[p * MR + r] = src[r];
      }
    }
    if (mr < MR) {
      for (int p = 0; p < kc; ++p) {
        for (int r = mr; r < MR; ++r) dst[p * MR + r] = 0.0f;
      }
    }
  }
}

/// Pack op(B)[p0 : p0+kc, j0 : j0+n_sub] into NR-column slivers, k-major:
/// bp[jb*kc*NR + p*NR + j] = op(B)(p0+p, j0+jb*NR+j), zero-padded cols.
void pack_b(bool trans_b, const float* GLP_RESTRICT b, int ldb, int p0, int j0,
            int kc, int n_sub, float* GLP_RESTRICT bp) {
  const int n_jb = (n_sub + NR - 1) / NR;
  for (int jb = 0; jb < n_jb; ++jb) {
    float* dst = bp + static_cast<std::size_t>(jb) * kc * NR;
    const int nr = std::min(NR, n_sub - jb * NR);
    if (!trans_b) {
      for (int p = 0; p < kc; ++p) {
        const float* src =
            b + static_cast<std::size_t>(p0 + p) * ldb + j0 + jb * NR;
        int j = 0;
        for (; j < nr; ++j) dst[p * NR + j] = src[j];
        for (; j < NR; ++j) dst[p * NR + j] = 0.0f;
      }
    } else {
      for (int j = 0; j < nr; ++j) {
        const float* src =
            b + static_cast<std::size_t>(j0 + jb * NR + j) * ldb + p0;
        for (int p = 0; p < kc; ++p) dst[p * NR + j] = src[p];
      }
      for (int j = nr; j < NR; ++j) {
        for (int p = 0; p < kc; ++p) dst[p * NR + j] = 0.0f;
      }
    }
  }
}

struct GemmArgs {
  bool trans_a, trans_b;
  int m, n, k;
  float alpha, beta;
  const float* a;
  int lda;
  const float* b;
  int ldb;
  float* c;
  int ldc;
};

/// Compute one MC x NC output tile: accumulate all k slabs in ascending
/// order into the local microtile buffer, then apply alpha/beta once.
void compute_tile(const GemmArgs& g, int ic, int jc) {
  Scratch& s = tls_scratch();
  const int i0 = ic * MC;
  const int j0 = jc * NC;
  const int m_sub = std::min(MC, g.m - i0);
  const int n_sub = std::min(NC, g.n - j0);
  const int n_ib = (m_sub + MR - 1) / MR;
  const int n_jb = (n_sub + NR - 1) / NR;
  float* cl = s.c.get();
  std::fill(cl, cl + static_cast<std::size_t>(n_ib) * n_jb * MR * NR, 0.0f);

  for (int pc = 0; pc < g.k; pc += KC) {
    const int kc = std::min(KC, g.k - pc);
    pack_a(g.trans_a, g.a, g.lda, i0, pc, m_sub, kc, s.a.get());
    pack_b(g.trans_b, g.b, g.ldb, pc, j0, kc, n_sub, s.b.get());
    for (int ib = 0; ib < n_ib; ++ib) {
      for (int jb = 0; jb < n_jb; ++jb) {
        micro_kernel(kc, s.a.get() + static_cast<std::size_t>(ib) * kc * MR,
                     s.b.get() + static_cast<std::size_t>(jb) * kc * NR,
                     cl + static_cast<std::size_t>(ib * n_jb + jb) * MR * NR);
      }
    }
  }

  for (int ib = 0; ib < n_ib; ++ib) {
    const int mr = std::min(MR, m_sub - ib * MR);
    for (int r = 0; r < mr; ++r) {
      float* crow =
          g.c + static_cast<std::size_t>(i0 + ib * MR + r) * g.ldc + j0;
      for (int jb = 0; jb < n_jb; ++jb) {
        const float* acc =
            cl + static_cast<std::size_t>(ib * n_jb + jb) * MR * NR + r * NR;
        const int nr = std::min(NR, n_sub - jb * NR);
        float* cj = crow + jb * NR;
        if (g.beta == 0.0f) {
          // Do not read C: it may be uninitialized (NaN poisoning).
          for (int j = 0; j < nr; ++j) cj[j] = g.alpha * acc[j];
        } else if (g.beta == 1.0f) {
          for (int j = 0; j < nr; ++j) cj[j] += g.alpha * acc[j];
        } else {
          for (int j = 0; j < nr; ++j) {
            cj[j] = g.alpha * acc[j] + g.beta * cj[j];
          }
        }
      }
    }
  }
}

/// Column-partitioned kernel for skinny-m shapes (the m=1 / m=2
/// fully-connected products): computes all rows for columns [j0, j1).
/// Each chunk writes a disjoint column range and accumulates in the
/// fixed k order, so the partition is worker-count invariant.
void small_gemm_cols(const GemmArgs& g, std::size_t j0, std::size_t j1) {
  const int m = g.m, k = g.k;
  const float alpha = g.alpha, beta = g.beta;
  for (int i = 0; i < m; ++i) {
    float* crow = g.c + static_cast<std::size_t>(i) * g.ldc;
    if (beta == 0.0f) {
      std::fill(crow + j0, crow + j1, 0.0f);
    } else if (beta != 1.0f) {
      for (std::size_t j = j0; j < j1; ++j) crow[j] *= beta;
    }
  }
  if (!g.trans_b) {
    // C[i, j] += alpha * opA(i, p) * B[p, j]: broadcast-row form over the
    // contiguous column slice of B.
    for (int i = 0; i < m; ++i) {
      float* GLP_RESTRICT crow = g.c + static_cast<std::size_t>(i) * g.ldc;
      for (int p = 0; p < k; ++p) {
        const float av =
            alpha * (g.trans_a ? g.a[static_cast<std::size_t>(p) * g.lda + i]
                               : g.a[static_cast<std::size_t>(i) * g.lda + p]);
        const float* GLP_RESTRICT brow = g.b + static_cast<std::size_t>(p) * g.ldb;
        for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
      }
    }
  } else {
    // C[i, j] += alpha * opA(i, p) * B[j, p]: dot product per column,
    // split over eight accumulator chains so the add-latency chain is
    // not the bottleneck. The combine order is fixed by the shape alone,
    // so the result is still worker-count invariant.
    for (int i = 0; i < m; ++i) {
      float* crow = g.c + static_cast<std::size_t>(i) * g.ldc;
      for (std::size_t j = j0; j < j1; ++j) {
        const float* GLP_RESTRICT brow = g.b + j * static_cast<std::size_t>(g.ldb);
        float acc;
        if (g.trans_a) {
          acc = 0.0f;
          for (int p = 0; p < k; ++p) {
            acc += g.a[static_cast<std::size_t>(p) * g.lda + i] * brow[p];
          }
        } else {
          const float* GLP_RESTRICT arow =
              g.a + static_cast<std::size_t>(i) * g.lda;
          float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
          int p = 0;
          for (; p + 8 <= k; p += 8) {
            for (int u = 0; u < 8; ++u) lane[u] += arow[p + u] * brow[p + u];
          }
          float tail = 0.0f;
          for (; p < k; ++p) tail += arow[p] * brow[p];
          acc = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                ((lane[4] + lane[5]) + (lane[6] + lane[7])) + tail;
        }
        crow[j] += alpha * acc;
      }
    }
  }
}

/// Register-striding fallback for shapes too small (or too skinny) to
/// amortize packing. The seed's loop structure, minus its data-dependent
/// `av == 0` skip: that branch blocked vectorization of the inner loop
/// and made runtime depend on the data.
void small_gemm_rows(const GemmArgs& g, std::size_t i0, std::size_t i1) {
  const int n = g.n, k = g.k;
  const float alpha = g.alpha, beta = g.beta;
  for (std::size_t i = i0; i < i1; ++i) {
    float* crow = g.c + i * static_cast<std::size_t>(g.ldc);
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (int j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  if (!g.trans_a && !g.trans_b) {
    // C[i,j] += alpha * A[i,p] * B[p,j] — ikj order, contiguous B rows.
    for (std::size_t i = i0; i < i1; ++i) {
      const float* arow = g.a + i * static_cast<std::size_t>(g.lda);
      float* GLP_RESTRICT crow = g.c + i * static_cast<std::size_t>(g.ldc);
      for (int p = 0; p < k; ++p) {
        const float av = alpha * arow[p];
        const float* GLP_RESTRICT brow =
            g.b + static_cast<std::size_t>(p) * g.ldb;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else if (!g.trans_a && g.trans_b) {
    // C[i,j] += alpha * A[i,p] * B[j,p] — dot products over contiguous rows.
    for (std::size_t i = i0; i < i1; ++i) {
      const float* GLP_RESTRICT arow = g.a + i * static_cast<std::size_t>(g.lda);
      float* crow = g.c + i * static_cast<std::size_t>(g.ldc);
      for (int j = 0; j < n; ++j) {
        const float* GLP_RESTRICT brow =
            g.b + static_cast<std::size_t>(j) * g.ldb;
        float acc = 0.0f;
        for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] += alpha * acc;
      }
    }
  } else if (g.trans_a && !g.trans_b) {
    // C[i,j] += alpha * A[p,i] * B[p,j]
    for (int p = 0; p < k; ++p) {
      const float* arow = g.a + static_cast<std::size_t>(p) * g.lda;
      const float* GLP_RESTRICT brow = g.b + static_cast<std::size_t>(p) * g.ldb;
      for (std::size_t i = i0; i < i1; ++i) {
        const float av = alpha * arow[i];
        float* GLP_RESTRICT crow = g.c + i * static_cast<std::size_t>(g.ldc);
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {
    // C[i,j] += alpha * A[p,i] * B[j,p]
    for (std::size_t i = i0; i < i1; ++i) {
      float* crow = g.c + i * static_cast<std::size_t>(g.ldc);
      for (int j = 0; j < n; ++j) {
        const float* GLP_RESTRICT brow =
            g.b + static_cast<std::size_t>(j) * g.ldb;
        float acc = 0.0f;
        for (int p = 0; p < k; ++p) {
          acc += g.a[static_cast<std::size_t>(p) * g.lda + i] * brow[p];
        }
        crow[j] += alpha * acc;
      }
    }
  }
}

/// Skinny-m shapes (m=1 FC rows): the microtile would spend most of its
/// flops on zero padding, so partition the *columns* instead. This is
/// also what lets a 1 x N product use every worker.
void skinny_gemm(const GemmArgs& g) {
  auto col_range = [&g](std::size_t c0, std::size_t c1) {
    small_gemm_cols(g, c0, c1);
  };
  const std::size_t per_col =
      static_cast<std::size_t>(g.m) * static_cast<std::size_t>(g.k);
  if (per_col * static_cast<std::size_t>(g.n) >= kParallelWork) {
    const std::size_t grain = std::max<std::size_t>(
        NR, (std::size_t{1} << 16) / std::max<std::size_t>(1, per_col));
    glp::parallel_for(0, static_cast<std::size_t>(g.n), col_range, grain);
  } else {
    col_range(0, static_cast<std::size_t>(g.n));
  }
}

}  // namespace

void gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta, float* c,
          int ldc) {
  GLP_REQUIRE(m >= 0 && n >= 0 && k >= 0, "gemm dims must be non-negative");
  if (m == 0 || n == 0) return;

  if (k == 0 || alpha == 0.0f) {
    // Pure C scale. alpha == 0 short-circuits like the seed did: the
    // product term is dropped outright rather than multiplied in.
    if (beta == 1.0f) return;
    for (int i = 0; i < m; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      if (beta == 0.0f) {
        std::fill(crow, crow + n, 0.0f);
      } else {
        for (int j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    return;
  }

  const GemmArgs g{trans_a, trans_b, m,   n, k,   alpha, beta,
                   a,       lda,     b,   ldb, c, ldc};
  const std::size_t work = static_cast<std::size_t>(m) *
                           static_cast<std::size_t>(n) *
                           static_cast<std::size_t>(k);

  if (n == 1 && ldc == 1 && (trans_b || ldb == 1)) {
    // GEMV with contiguous x and y: y = op(A)·x is the 1 x m product
    // xᵀ·op(A)ᵀ, whose column path runs vectorized dot products (A
    // row-major) or axpys (A transposed) instead of m serial chains.
    skinny_gemm(GemmArgs{false, !trans_a, 1, m, k, alpha, beta, b, k, a,
                         lda, c, m});
    return;
  }
  if (m < MR && n >= NR) {
    skinny_gemm(g);
    return;
  }

  if (n >= NR && k >= 8 && work >= kTiledWork) {
    // Tiled path. Partitioning the MC x NC tile grid covers every shape:
    // a 1 x N fully-connected product becomes a 1 x n_jc grid, so small-m
    // GEMMs parallelize over n instead of being pinned to one thread.
    const int n_ic = (m + MC - 1) / MC;
    const int n_jc = (n + NC - 1) / NC;
    const std::size_t tiles =
        static_cast<std::size_t>(n_ic) * static_cast<std::size_t>(n_jc);
    auto tile_range = [&](std::size_t t0, std::size_t t1) {
      for (std::size_t t = t0; t < t1; ++t) {
        compute_tile(g, static_cast<int>(t / n_jc), static_cast<int>(t % n_jc));
      }
    };
    if (work >= kParallelWork && tiles > 1) {
      glp::parallel_for(0, tiles, tile_range, /*grain=*/1);
    } else {
      tile_range(0, tiles);
    }
    return;
  }

  auto row_range = [&](std::size_t i0, std::size_t i1) {
    small_gemm_rows(g, i0, i1);
  };
  if (work >= kParallelWork && m > 1) {
    // Shape-only grain: chunk boundaries must not depend on worker count.
    const std::size_t per_row =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
    const std::size_t grain = std::max<std::size_t>(1, (1u << 16) / per_row);
    glp::parallel_for(0, static_cast<std::size_t>(m), row_range, grain);
  } else {
    row_range(0, static_cast<std::size_t>(m));
  }
}

}  // namespace kern::cpu
