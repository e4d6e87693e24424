// Parallel loops over the persistent ThreadPool, one schedule per loop
// shape — the paper's §4.5 cost-based partitioning. The ExecutionContext
// supplies the pool, the thread count and the stop state; the loop shape
// picks the entry point and with it the schedule:
//
//   ParallelFor             index ranges without a cost model (per-point
//                           phases): threads claim grain-sized runs from
//                           a shared counter.
//   ParallelForWithCosts    per-item loops with a cost model (grid cells,
//                           §4.5): items are sorted into LPT order and
//                           threads claim them one at a time.
//   ParallelForStaticChunks one contiguous chunk per thread, for loops
//                           that amortize per-chunk scratch.
//   ParallelTasks           a fixed set of build tasks (index
//                           construction, sort chunks) that always runs
//                           to completion.
//
// Every variant calls fn on each index/item exactly once with disjoint
// slices, so loops whose writes are per-slot disjoint stay deterministic
// across thread counts — the library-wide contract that
// tests/determinism_test.cc enforces.
//
// Cancellation: ParallelFor and ParallelForWithCosts poll ctx.ShouldStop()
// amortized (every kStopCheckStride indices / every claimed item) and
// stop issuing work once it fires, so an expired or cancelled request
// releases the pool mid-phase instead of at the next phase boundary. A
// stopped loop leaves later indices unvisited — callers observe the same
// ShouldStop() at the phase boundary (stop state is sticky) and discard
// the partial phase via internal::Interrupted. ParallelTasks never stops
// early: a half-built index must never be queried.
#ifndef DPC_PARALLEL_PARALLEL_FOR_H_
#define DPC_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "parallel/execution_context.h"
#include "parallel/lpt_scheduler.h"

namespace dpc {

namespace internal {
/// Below this iteration count a parallel region cannot pay for itself.
inline constexpr int64_t kMinParallelIterations = 2048;
/// Indices between ShouldStop polls in index loops. Large enough that the
/// poll (two atomic loads, plus a clock read only when a deadline is set)
/// vanishes against per-index work; small enough that a cancelled run
/// frees its pool threads within microseconds.
inline constexpr int64_t kStopCheckStride = 1024;

/// Runs fn over [begin, end) in kStopCheckStride sub-slices, polling the
/// context between slices. Returns false if the loop stopped early.
template <typename Fn>
bool RunSlices(const ExecutionContext& ctx, int64_t begin, int64_t end,
               const Fn& fn) {
  for (int64_t sub = begin; sub < end; sub += kStopCheckStride) {
    if (ctx.ShouldStop()) return false;
    fn(sub, std::min(sub + kStopCheckStride, end));
  }
  return true;
}
}  // namespace internal

/// Calls fn(begin, end) over disjoint chunks of [0, n): threads claim
/// grain-sized chunks from a shared counter.
template <typename Fn>
void ParallelFor(const ExecutionContext& ctx, int64_t n, const Fn& fn) {
  if (n <= 0) return;
  const int threads =
      static_cast<int>(std::min<int64_t>(ctx.threads(), n));
  if (threads <= 1 || n < internal::kMinParallelIterations) {
    internal::RunSlices(ctx, 0, n, fn);
    return;
  }
  // ~8 grains per thread balances claim overhead against load balance.
  const int64_t grain =
      std::max<int64_t>(1, n / (static_cast<int64_t>(threads) * 8));
  std::atomic<int64_t> next{0};
  ctx.pool().Run(threads, [&](int64_t) {
    for (;;) {
      const int64_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) break;
      if (!internal::RunSlices(ctx, begin, std::min(begin + grain, n), fn)) {
        break;
      }
    }
  });
}

/// One fn(begin, end) callback per contiguous static chunk (one chunk
/// per thread) — for loops that amortize expensive per-callback scratch
/// over the whole chunk (LSH-DDP's stamped dedup array). Unlike
/// ParallelFor, mid-chunk stop polling is the callback's job; this loop
/// only skips chunks that have not started when the context says stop.
template <typename Fn>
void ParallelForStaticChunks(const ExecutionContext& ctx, int64_t n,
                             const Fn& fn) {
  if (n <= 0) return;
  const int threads =
      static_cast<int>(std::min<int64_t>(ctx.threads(), n));
  if (threads <= 1 || n < internal::kMinParallelIterations) {
    if (!ctx.ShouldStop()) fn(int64_t{0}, n);
    return;
  }
  const int64_t chunk = (n + threads - 1) / threads;
  ctx.pool().Run(threads, [&](int64_t t) {
    if (ctx.ShouldStop()) return;
    const int64_t begin = t * chunk;
    const int64_t end = std::min(begin + chunk, n);
    if (begin < end) fn(begin, end);
  });
}

/// Calls fn(task) for every task in [0, num_tasks) on up to ctx.threads()
/// threads, each claiming the next task from a shared counter. Ignores
/// the stop state: callers are index builds and sorts whose partial
/// output would be wrong, not merely late.
template <typename Fn>
void ParallelTasks(const ExecutionContext& ctx, int64_t num_tasks,
                   const Fn& fn) {
  const int threads =
      static_cast<int>(std::min<int64_t>(ctx.threads(), num_tasks));
  if (threads <= 1) {
    for (int64_t task = 0; task < num_tasks; ++task) fn(task);
    return;
  }
  std::atomic<int64_t> next{0};
  ctx.pool().Run(threads, [&](int64_t) {
    for (;;) {
      const int64_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= num_tasks) break;
      fn(task);
    }
  });
}

/// Calls fn(item) for every item in [0, costs.size()), where costs[item]
/// models the item's work (index/grid.h::CellCosts for grid cells).
/// Items go out in LPT order (cost desc, id asc; §4.5), each thread
/// claiming the next one when it finishes its last, so a mis-costed item
/// delays only its own thread. Items are heavy by definition (a cell's
/// whole point population), so the stop poll runs per item.
template <typename Fn>
void ParallelForWithCosts(const ExecutionContext& ctx,
                          const std::vector<double>& costs, const Fn& fn) {
  const int64_t n = static_cast<int64_t>(costs.size());
  if (n <= 0) return;
  const int threads =
      static_cast<int>(std::min<int64_t>(ctx.threads(), n));
  // Inline when the modeled work is tiny (mirrors ParallelFor's guard;
  // costs are in work units — iterations for the grid's |P(c)| model).
  double total_cost = 0.0;
  for (const double cost : costs) total_cost += cost;
  if (threads <= 1 ||
      total_cost < static_cast<double>(internal::kMinParallelIterations)) {
    for (int64_t item = 0; item < n; ++item) {
      if (ctx.ShouldStop()) return;
      fn(item);
    }
    return;
  }
  const std::vector<int64_t> order = LptOrder(costs);
  std::atomic<int64_t> next{0};
  ctx.pool().Run(threads, [&](int64_t) {
    for (;;) {
      const int64_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= n || ctx.ShouldStop()) break;
      fn(order[static_cast<size_t>(k)]);
    }
  });
}

}  // namespace dpc

#endif  // DPC_PARALLEL_PARALLEL_FOR_H_
