/**
 * @file
 * Deterministic parallel execution layer.
 *
 * A lazily-started shared ThreadPool plus two loop primitives —
 * parallelFor and an ordered parallelMap — used by every hot path in
 * the library (boosting sweeps, forest bagging, batch prediction, the
 * campaign's device x network grid, cross-validation folds, signature
 * candidate scoring).
 *
 * Determinism contract
 * --------------------
 * Results are bit-identical at any thread count, including 1:
 *
 *  - The iteration space is split into fixed-size chunks whose
 *    boundaries depend only on (range, grain), never on the thread
 *    count or on scheduling. Within a chunk, indices run in ascending
 *    order, so every floating-point accumulation a task performs uses
 *    exactly the serial operation order.
 *  - Tasks may only write state owned by their own index (a slot in a
 *    pre-sized output vector, a disjoint row block, ...).
 *    Cross-task reductions are performed by the caller, serially, in
 *    index order after the loop completes.
 *  - Stochastic tasks never share a sequential Rng; each task derives
 *    its own stream with Rng::fork(task_id) (SplitMix64-style stream
 *    splitting), so the draws a task sees are a pure function of the
 *    parent seed and the task id.
 *
 * The pool size is taken from setThreads(), else the GCM_THREADS
 * environment variable, else std::thread::hardware_concurrency().
 * With one thread (or a single chunk) the loop body runs inline on
 * the calling thread and the pool is never started.
 *
 * Scheduling is caller-participates: the invoking thread claims and
 * executes chunks alongside the workers and can always finish the
 * whole batch by itself, so nested parallel sections (a parallel
 * prediction sweep inside a parallel map task) cannot deadlock.
 */

#ifndef GCM_UTIL_PARALLEL_HH
#define GCM_UTIL_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace gcm
{

/**
 * Effective worker count (>= 1) the next parallel loop will use:
 * the last setThreads() value, else GCM_THREADS, else
 * hardware_concurrency.
 */
std::size_t numThreads();

/**
 * Set the pool size. 0 restores the automatic default (GCM_THREADS
 * env, then hardware_concurrency). A running pool is drained and
 * restarted at the new size; must not be called concurrently with a
 * parallel loop.
 */
void setThreads(std::size_t n);

namespace detail
{

/**
 * Execute chunk(0..nchunks-1), each exactly once, across the pool and
 * the calling thread. Blocks until all chunks finished; rethrows the
 * first exception a chunk threw (remaining chunks are skipped once a
 * failure is recorded).
 */
void runBatch(std::size_t nchunks,
              const std::function<void(std::size_t)> &chunk);

} // namespace detail

/**
 * Apply fn(i) for i in [begin, end), split into chunks of `grain`
 * consecutive indices. fn must only write task-owned state (see the
 * determinism contract above). Runs inline when a single chunk covers
 * the range or the pool has one thread.
 */
template <typename Fn>
void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain, Fn &&fn)
{
    if (end <= begin)
        return;
    const std::size_t n = end - begin;
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t nchunks = (n + g - 1) / g;
    if (nchunks <= 1 || numThreads() == 1) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }
    detail::runBatch(nchunks, [&](std::size_t c) {
        const std::size_t lo = begin + c * g;
        const std::size_t hi = lo + g < end ? lo + g : end;
        for (std::size_t i = lo; i < hi; ++i)
            fn(i);
    });
}

/**
 * Ordered map: out[i] = fn(i) for i in [0, n). Results land in index
 * order regardless of completion order, so downstream consumers see
 * exactly the serial sequence. R needs not be default-constructible.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, std::size_t grain, Fn &&fn)
{
    using R = decltype(fn(std::size_t{0}));
    std::vector<std::optional<R>> slots(n);
    parallelFor(0, n, grain,
                [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto &s : slots)
        out.push_back(std::move(*s));
    return out;
}

} // namespace gcm

#endif // GCM_UTIL_PARALLEL_HH
