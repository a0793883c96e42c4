// Data-parallel loop decomposition over a ThreadPool.
//
// ChunkPlan splits [begin, end) into contiguous chunks (MPI-style block
// decomposition, oversubscribed beyond the worker count for load balancing).
// parallel_for / parallel_for_chunked / parallel_chunks execute a plan and
// block until every chunk finished. parallel_reduce additionally combines
// per-chunk partial results with a user-supplied binary op in chunk order —
// the shared-memory analogue of MPI_Allreduce. Its blocks come from
// reduce_plan, which depends on the range length alone, so a floating-point
// reduction gives the same bits for every pool size and host.
//
// Thread-safety contract (checked by -Wthread-safety where expressible, see
// numarck/util/thread_annotations.hpp): these helpers take no locks of their
// own — correctness rests on chunks being disjoint index ranges, so workers
// never write the same element. A `body` that touches shared state beyond
// its [i0, i1) slice must bring its own annotated Mutex; ThreadPool::submit
// is EXCLUDES(pool.mu_), so the body must also never block on the pool it
// runs inside (the deadlock ShardedCompressor's inner_pool_ design avoids).
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "numarck/util/thread_pool.hpp"

namespace numarck::util {

/// Minimum work per chunk before the loop bothers going parallel. Tuned so the
/// pool is not invoked for ranges where task overhead dominates.
inline constexpr std::size_t kParallelGrainSize = 4096;

/// Chunks per worker: skewed per-chunk work (e.g. exact-heavy regions of a
/// snapshot) is balanced by handing each worker several smaller chunks
/// instead of one big one.
inline constexpr std::size_t kParallelOversubscribe = 4;

/// Workers a plan may actually exploit: asking for more threads than the
/// machine has cores just multiplies scheduling overhead (the seed's
/// BENCH_codec.json shows 8-thread encode *slower* than 1-thread on a 1-core
/// box purely from this). hardware_concurrency() may return 0 ("unknown");
/// treat that as no cap rather than as zero cores.
inline std::size_t effective_workers(std::size_t requested) noexcept {
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? requested : std::min(requested, hw);
}

/// Most blocks reduce_plan cuts a range into. A compile-time constant, so the
/// reduction's summation order never follows the pool or the host.
inline constexpr std::size_t kReduceMaxBlocks = 64;

/// A deterministic block decomposition of [begin, end). The chunk count
/// depends only on (range size, chunk cap, grain), never on runtime
/// scheduling, so per-chunk results can be combined in chunk order
/// reproducibly.
struct ChunkPlan {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunks = 1;
  std::size_t step = 0;

  /// Cap on the chunk count, for plans that must not depend on workers.
  struct MaxChunks {
    std::size_t value;
  };

  /// At most `max.value` chunks of at least `grain` points each; a single
  /// chunk when the range is shorter than 2 × grain.
  ChunkPlan(std::size_t b, std::size_t e, MaxChunks max,
            std::size_t grain = kParallelGrainSize)
      : begin(b), end(e) {
    const std::size_t n = end > begin ? end - begin : 0;
    step = n;
    if (max.value <= 1 || n < 2 * grain) return;
    // Floor (not ceil) n/grain: every chunk keeps at least `grain` points, so
    // tiny inputs never shatter into sub-grain slivers.
    const std::size_t max_useful = n / grain;
    chunks = std::min(max.value, max_useful);
    step = (n + chunks - 1) / chunks;
    chunks = (n + step - 1) / step;  // drop chunks the rounding left empty
  }

  /// Plan for a pool of `workers`: one chunk for a single worker, else
  /// kParallelOversubscribe chunks per effective worker.
  ChunkPlan(std::size_t b, std::size_t e, std::size_t workers,
            std::size_t grain = kParallelGrainSize)
      : ChunkPlan(b, e, MaxChunks{worker_chunks(workers)}, grain) {}

  /// Half-open index range of chunk c.
  [[nodiscard]] std::pair<std::size_t, std::size_t> bounds(
      std::size_t c) const noexcept {
    const std::size_t i0 = begin + c * step;
    const std::size_t i1 = std::min(end, i0 + step);
    return {i0, i1};
  }

 private:
  static std::size_t worker_chunks(std::size_t workers) noexcept {
    workers = effective_workers(workers);
    return workers <= 1 ? 1 : workers * kParallelOversubscribe;
  }
};

/// The block plan of parallel_reduce: min(n / kParallelGrainSize,
/// kReduceMaxBlocks) blocks, one below 2 × kParallelGrainSize. It reads
/// neither the pool size nor hardware_concurrency(), so every pool on every
/// host sums the same blocks in the same order.
inline ChunkPlan reduce_plan(std::size_t begin, std::size_t end) {
  return ChunkPlan(begin, end, ChunkPlan::MaxChunks{kReduceMaxBlocks});
}

/// Invokes body(c, i0, i1) for every chunk of `plan`; inline when the plan is
/// a single chunk or the pool has one worker.
template <typename Body>
void parallel_chunks(ThreadPool& pool, const ChunkPlan& plan, Body&& body) {
  if (plan.end <= plan.begin) return;
  if (plan.chunks <= 1 || pool.size() <= 1) {
    for (std::size_t c = 0; c < plan.chunks; ++c) {
      const auto [i0, i1] = plan.bounds(c);
      body(c, i0, i1);
    }
    return;
  }
  std::vector<std::future<void>> futs;
  futs.reserve(plan.chunks);
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const auto [i0, i1] = plan.bounds(c);
    futs.push_back(pool.submit([c, i0, i1, &body] { body(c, i0, i1); }));
  }
  // Drain every future before rethrowing: unwinding while workers still
  // reference the caller's locals (body captures them) would be UB. The
  // first chunk's exception wins; later ones are joined and dropped.
  std::exception_ptr err;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
}

/// Invokes body(i0, i1) on disjoint subranges covering [begin, end).
/// Runs inline when the range is small or the pool has one worker.
template <typename Body>
void parallel_for_chunked(ThreadPool& pool, std::size_t begin, std::size_t end,
                          Body&& body) {
  parallel_chunks(pool, ChunkPlan(begin, end, pool.size()),
                  [&body](std::size_t, std::size_t i0, std::size_t i1) {
                    body(i0, i1);
                  });
}

/// Element-wise convenience wrapper: body(i) per index.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, Body&& body) {
  parallel_for_chunked(pool, begin, end, [&body](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) body(i);
  });
}

/// Blocked reduction over reduce_plan(begin, end): `partial(i0, i1) -> T`
/// computed per block, combined with `combine(T, T) -> T` in block order. A
/// 1-worker pool walks the same blocks inline, so the result is identical for
/// every pool size and host.
template <typename T, typename Partial, typename Combine>
T parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end, T init,
                  Partial&& partial, Combine&& combine) {
  if (end <= begin) return init;
  const ChunkPlan plan = reduce_plan(begin, end);
  if (plan.chunks <= 1 || pool.size() <= 1) {
    T acc = std::move(init);
    for (std::size_t c = 0; c < plan.chunks; ++c) {
      const auto [i0, i1] = plan.bounds(c);
      acc = combine(std::move(acc), partial(i0, i1));
    }
    return acc;
  }
  std::vector<std::future<T>> futs;
  futs.reserve(plan.chunks);
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const auto [i0, i1] = plan.bounds(c);
    futs.push_back(pool.submit([i0, i1, &partial] { return partial(i0, i1); }));
  }
  // As in parallel_chunks: join every chunk before any rethrow so no worker
  // outlives the locals its chunk captured.
  std::exception_ptr err;
  T acc = std::move(init);
  for (auto& f : futs) {
    try {
      T part = f.get();
      if (!err) acc = combine(std::move(acc), std::move(part));
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
  return acc;
}

}  // namespace numarck::util
