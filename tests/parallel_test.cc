// The parallel/ layer underneath API v2: ThreadPool task-execution
// guarantees, ParallelFor/ParallelForWithCosts coverage at every
// thread count, the shared default pool, and ExecutionContext
// deadline/cancellation semantics.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/scan_dpc.h"
#include "core/approx_dpc.h"
#include "core/ex_dpc.h"
#include "data/generators.h"
#include "parallel/execution_context.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

int main() {
  // ThreadPool: every task runs exactly once, across many reused regions
  // (the pool must not leak state between Run calls).
  {
    dpc::ThreadPool pool(4);
    CHECK_EQ(pool.size(), 4);
    for (int round = 0; round < 100; ++round) {
      std::vector<int> hits(257, 0);
      pool.Run(257, [&](int64_t t) { hits[static_cast<size_t>(t)] += 1; });
      for (const int h : hits) CHECK_EQ(h, 1);
    }
    // Degenerate task counts.
    pool.Run(0, [](int64_t) { CHECK(false); });
    int once = 0;
    pool.Run(1, [&](int64_t) { ++once; });
    CHECK_EQ(once, 1);
    // Nested Run degrades to inline serial execution, no deadlock.
    std::atomic<int> nested{0};
    pool.Run(4, [&](int64_t) {
      pool.Run(8, [&](int64_t) { nested.fetch_add(1); });
    });
    CHECK_EQ(nested.load(), 32);
  }

  // ParallelFor and ParallelForWithCosts: exact coverage at every
  // thread count, on one shared pool.
  {
    auto pool = std::make_shared<dpc::ThreadPool>(4);
    for (const int threads : {1, 2, 4}) {
      const dpc::ExecutionContext ctx(threads, pool);
      CHECK_EQ(ctx.threads(), threads);

      std::vector<int> seen(10000, 0);
      dpc::ParallelFor(ctx, 10000, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) seen[static_cast<size_t>(i)]++;
      });
      for (const int s : seen) CHECK_EQ(s, 1);

      std::vector<double> costs(500);
      for (size_t i = 0; i < costs.size(); ++i) {
        costs[i] = 1000.0 / static_cast<double>(1 + i);  // skewed
      }
      std::vector<int> item_seen(costs.size(), 0);
      dpc::ParallelForWithCosts(ctx, costs, [&](int64_t item) {
        item_seen[static_cast<size_t>(item)]++;
      });
      for (const int s : item_seen) CHECK_EQ(s, 1);
    }
  }

  // Default-constructed contexts share one process-wide pool (pool
  // reuse is the point of the redesign), and WithThreads copies keep
  // sharing it.
  {
    const dpc::ExecutionContext a;
    const dpc::ExecutionContext b;
    CHECK(a.shared_pool().get() == b.shared_pool().get());
    CHECK(a.WithThreads(2).shared_pool().get() == a.shared_pool().get());
    CHECK_EQ(a.WithThreads(2).threads(), 2);
    CHECK_EQ(a.num_threads(), 0);  // unspecified: all hardware threads
  }

  // Cancellation propagates to every copy (algorithms run on a resolved
  // copy, so RequestCancel on the caller's context must reach it).
  {
    const dpc::ExecutionContext ctx(2);
    const dpc::ExecutionContext copy = ctx.WithThreads(4);
    CHECK(!ctx.ShouldStop());
    ctx.RequestCancel();
    CHECK(ctx.ShouldStop());
    CHECK(copy.ShouldStop());
  }

  // An expired deadline stops the run — including copies made BEFORE the
  // deadline was set (the deadline lives in the shared stop state, like
  // the cancel flag, so bounding an already-running clone works).
  {
    dpc::ExecutionContext ctx;
    const dpc::ExecutionContext copy = ctx.WithThreads(2);
    CHECK(!copy.ShouldStop());
    ctx.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::seconds(1));
    CHECK(ctx.ShouldStop());
    CHECK(copy.ShouldStop());
    dpc::ExecutionContext fresh;
    fresh.set_deadline_after(std::chrono::hours(1));
    CHECK(!fresh.ShouldStop());
  }

  // Mid-loop cancellation (amortized ShouldStop polling): a cancel fired
  // from inside the loop stops both loop shapes well before full
  // coverage, at every thread count and even on the serial path.
  {
    auto pool = std::make_shared<dpc::ThreadPool>(2);
    const int64_t n = int64_t{1} << 20;
    for (const int threads : {1, 2}) {
      const dpc::ExecutionContext ctx(threads, pool);
      std::atomic<int64_t> visited{0};
      dpc::ParallelFor(ctx, n, [&](int64_t begin, int64_t end) {
        visited.fetch_add(end - begin);
        ctx.RequestCancel();
      });
      CHECK(visited.load() > 0);
      CHECK(visited.load() < n / 2);  // stopped mid-phase, not at the end

      // The cancel is confined to ctx's stop state: a fresh-stop-state
      // sibling still covers every item.
      std::vector<double> costs(8192, 1.0);
      std::atomic<int64_t> items{0};
      dpc::ParallelForWithCosts(ctx.WithFreshStopState(), costs,
                                [&](int64_t) { items.fetch_add(1); });
      CHECK_EQ(items.load(), static_cast<int64_t>(costs.size()));
    }
    // ParallelForWithCosts stops between items once the context says so.
    const dpc::ExecutionContext ctx(2, pool);
    std::vector<double> costs(8192, 1.0);
    std::atomic<int64_t> items{0};
    dpc::ParallelForWithCosts(ctx, costs, [&](int64_t) {
      items.fetch_add(1);
      ctx.RequestCancel();
    });
    CHECK(items.load() > 0);
    CHECK(items.load() < static_cast<int64_t>(costs.size()));
  }

  // LPT claiming under a wrong cost model: item `slow` claims the
  // smallest cost (so LPT order reaches it last) but runs 100x longer
  // than any other item. Threads claim items online, so every item is
  // still visited exactly once at 1, 2 and 8 threads, and a cancel fired
  // from the first item visited stops the loop between items.
  {
    auto pool = std::make_shared<dpc::ThreadPool>(8);
    std::vector<double> costs(3000);
    for (size_t i = 0; i < costs.size(); ++i) {
      costs[i] = 2.0 + static_cast<double>(i % 5);
    }
    const int64_t slow = 1234;
    costs[static_cast<size_t>(slow)] = 1.0;
    const auto work = [](int64_t rounds) {
      volatile int64_t sink = 0;
      for (int64_t r = 0; r < rounds; ++r) sink = sink + r;
    };
    for (const int threads : {1, 2, 8}) {
      const dpc::ExecutionContext ctx(threads, pool);
      std::vector<int> seen(costs.size(), 0);
      dpc::ParallelForWithCosts(ctx, costs, [&](int64_t item) {
        work(item == slow ? 200000 : 2000);
        seen[static_cast<size_t>(item)]++;
      });
      for (const int s : seen) CHECK_EQ(s, 1);

      const dpc::ExecutionContext cancel_ctx(threads, pool);
      std::atomic<int64_t> visited{0};
      dpc::ParallelForWithCosts(cancel_ctx, costs, [&](int64_t item) {
        work(item == slow ? 200000 : 2000);
        visited.fetch_add(1);
        cancel_ctx.RequestCancel();
      });
      CHECK(visited.load() >= 1);
      CHECK(visited.load() <= threads);  // at most one in-flight item each
    }
  }

  // WithFreshStopState: derived per-request contexts share the pool but
  // not the stop state, in both directions.
  {
    const dpc::ExecutionContext base(2);
    const dpc::ExecutionContext derived = base.WithFreshStopState();
    CHECK(base.shared_pool().get() == derived.shared_pool().get());
    derived.RequestCancel();
    CHECK(derived.ShouldStop());
    CHECK(!base.ShouldStop());
    const dpc::ExecutionContext derived2 = base.WithFreshStopState();
    base.RequestCancel();
    CHECK(base.ShouldStop());
    CHECK(!derived2.ShouldStop());
  }

  // Budget re-arm (regression): a deadline armed as a RELATIVE budget via
  // set_deadline_after re-arms IN FULL on every WithFreshStopState copy,
  // measured from the copy's creation. Before the fix, a sub-context
  // derived after the parent's budget had burned inherited a dead clock
  // and stopped instantly — a shard spawned late in a request got zero
  // time. Absolute set_deadline deadlines are NOT inherited.
  {
    dpc::ExecutionContext base(2);
    base.set_deadline_after(std::chrono::milliseconds(150));
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    CHECK(base.ShouldStop());  // parent budget burned
    const dpc::ExecutionContext derived = base.WithFreshStopState();
    CHECK(!derived.ShouldStop());  // full budget, fresh clock
    const dpc::ExecutionContext grandchild = derived.WithFreshStopState();
    CHECK(!grandchild.ShouldStop());
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    CHECK(derived.ShouldStop());     // the re-armed budget still expires
    CHECK(grandchild.ShouldStop());  // and re-arms transitively

    dpc::ExecutionContext absolute(2);
    absolute.set_deadline(std::chrono::steady_clock::now() -
                          std::chrono::seconds(1));
    CHECK(absolute.ShouldStop());
    CHECK(!absolute.WithFreshStopState().ShouldStop());
  }

  // A cancelled run stops at the first phase boundary: interrupted stats,
  // every label kUnassigned, no centers.
  {
    dpc::data::GaussianBenchmarkParams gen;
    gen.num_points = 500;
    gen.num_clusters = 3;
    gen.seed = 11;
    const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);
    dpc::DpcParams params;
    params.d_cut = 2000.0;
    params.rho_min = 2.0;
    params.delta_min = 9000.0;

    dpc::ExDpc ex_dpc;
    dpc::ApproxDpc approx_dpc;
    for (dpc::DpcAlgorithm* algo :
         {static_cast<dpc::DpcAlgorithm*>(&ex_dpc),
          static_cast<dpc::DpcAlgorithm*>(&approx_dpc)}) {
      dpc::ExecutionContext cancelled(2);
      cancelled.RequestCancel();
      const dpc::DpcResult result = algo->Run(points, params, cancelled);
      CHECK(result.stats.interrupted);
      CHECK_EQ(result.label.size(), static_cast<size_t>(points.size()));
      for (const int64_t label : result.label) CHECK_EQ(label, dpc::kUnassigned);
      CHECK_EQ(result.centers.size(), 0u);

      // The same run without cancellation completes normally.
      const dpc::DpcResult ok = algo->Run(points, params, dpc::ExecutionContext(2));
      CHECK(!ok.stats.interrupted);
      CHECK(ok.num_clusters() > 0);
    }
  }

  // Quadratic-baseline cancellation latency: Scan's O(n) per-index work
  // polls ShouldStop INSIDE the inner distance loop (every
  // ~kDistanceEvalsPerPoll evaluations), so a cancel mid-phase returns
  // long before the old worst case — the remainder of one 1024-index
  // outer slice. Self-calibrating: the bound is measured on this
  // machine/build, so it holds under sanitizers and debug builds alike.
  {
    const dpc::PointId n = 20000;
    dpc::data::GaussianBenchmarkParams gen;
    gen.num_points = n;
    gen.num_clusters = 5;
    gen.seed = 23;
    const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);
    const int dim = points.dim();

    // Calibrate one old-granularity slice: 1024 outer indices x n inner
    // distance evaluations (what cancellation used to wait out).
    double slice_seconds = 0.0;
    {
      const auto begin = std::chrono::steady_clock::now();
      double sink = 0.0;
      for (dpc::PointId i = 0; i < 1024; ++i) {
        for (dpc::PointId j = 0; j < n; ++j) {
          sink += dpc::SquaredDistance(points[i], points[j], dim);
        }
      }
      slice_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        begin)
              .count();
      CHECK(sink > 0.0);  // keep the calibration loop un-elidable
    }

    dpc::DpcParams params;
    params.d_cut = 2000.0;
    params.rho_min = 2.0;
    params.delta_min = 9000.0;
    const dpc::ExecutionContext ctx(1);  // serial: one thread, 1024-slices
    dpc::ScanDpc algo;
    dpc::DpcResult result;
    std::thread worker(
        [&] { result = algo.Run(points, params, ctx); });
    // Cancel early in the first slice; the run must come back within a
    // fraction of a slice, not after finishing it.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(slice_seconds * 0.1));
    const auto cancelled_at = std::chrono::steady_clock::now();
    ctx.RequestCancel();
    worker.join();
    const double overshoot =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      cancelled_at)
            .count();
    CHECK(result.stats.interrupted);
    for (const int64_t label : result.label) CHECK_EQ(label, dpc::kUnassigned);
    CHECK(overshoot < slice_seconds * 0.5);
  }

  std::printf("parallel_test OK\n");
  return 0;
}
