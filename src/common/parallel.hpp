#pragma once
// Persistent thread pool with a deterministic chunked parallel_for. Used
// by the host math kernels (gemm, im2col, ...) so the *numeric*
// experiments run at useful speed.
//
// Determinism contract: [begin, end) is split into fixed chunks of at
// most `grain` indices. Chunk boundaries depend only on (begin, end,
// grain) — never on the worker count or on scheduling — and every chunk
// is executed by exactly one thread. A kernel whose chunks write
// disjoint outputs in a fixed intra-chunk order therefore produces
// bit-identical results for any GLP_NUM_THREADS.
//
// The callable is passed by reference through a plain function pointer +
// context pointer — no std::function, no per-call heap allocation on the
// inline path.

#include <cstddef>

namespace glp {

/// Number of workers in the global pool. Defaults to the GLP_NUM_THREADS
/// environment variable when set (clamped to [1, 256]), else hardware
/// concurrency, and is always ≥ 1.
int parallel_workers();

/// Tear the pool down and restart it with `workers` threads (clamped to
/// ≥ 1). Intended for benchmarks and determinism tests that sweep thread
/// counts; must not race an in-flight parallel_for.
void set_parallel_workers(int workers);

namespace detail {
using RangeFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);
void parallel_for_impl(std::size_t begin, std::size_t end, std::size_t grain,
                       RangeFn fn, void* ctx);
}  // namespace detail

/// Invoke fn(lo, hi) over chunks of at most `grain` indices covering
/// [begin, end). Small ranges (and calls made from inside a parallel
/// region — the pool is not reentrant) run inline as one fn(begin, end).
/// fn must only touch disjoint state per chunk (CP.2: avoid data races by
/// construction). If a chunk throws, chunks not yet started are skipped,
/// and the first exception is rethrown on the caller once every chunk in
/// flight has finished; the pool stays usable.
template <typename F>
inline void parallel_for(std::size_t begin, std::size_t end, const F& fn,
                         std::size_t grain = 1024) {
  detail::parallel_for_impl(
      begin, end, grain,
      [](void* ctx, std::size_t lo, std::size_t hi) {
        (*static_cast<const F*>(ctx))(lo, hi);
      },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

}  // namespace glp
