// ExecutionContext — the execution policy of DpcAlgorithm::Run (API v2):
// which ThreadPool to run on, how many threads to use, and a per-run
// deadline / cancellation flag checked at phase boundaries. How a loop
// maps iterations to threads is fixed by its shape (parallel/
// parallel_for.h), not chosen per context.
//
// Contexts are cheap value types: copies share the pool and the cancel
// flag, so a caller can keep one context, hand copies to runs, and
// cancel them all with one RequestCancel(). Default-constructed contexts
// share one process-wide pool sized to the hardware — pool reuse across
// runs is the point of the redesign (no more per-phase thread spawn).
#ifndef DPC_PARALLEL_EXECUTION_CONTEXT_H_
#define DPC_PARALLEL_EXECUTION_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "obs/trace.h"
#include "parallel/omp_utils.h"
#include "parallel/thread_pool.h"

namespace dpc {

class ExecutionContext {
 public:
  /// All hardware threads on the shared process-wide pool, no deadline.
  ExecutionContext() : ExecutionContext(0) {}

  /// num_threads 0 leaves the degree unspecified (all hardware threads).
  /// A null pool selects the shared process-wide pool.
  explicit ExecutionContext(int num_threads,
                            std::shared_ptr<ThreadPool> pool = nullptr)
      : num_threads_(num_threads > 0 ? num_threads : 0),
        pool_(pool != nullptr ? std::move(pool) : SharedDefaultPool()),
        stop_(std::make_shared<StopState>()) {}

  /// Raw request; 0 = unspecified.
  int num_threads() const { return num_threads_; }
  /// Resolved parallelism degree (>= 1).
  int threads() const { return ResolveThreads(num_threads_); }
  ThreadPool& pool() const { return *pool_; }
  const std::shared_ptr<ThreadPool>& shared_pool() const { return pool_; }

  /// Copies sharing the pool and cancel flag, with one knob changed.
  ExecutionContext WithThreads(int num_threads) const {
    ExecutionContext copy = *this;
    copy.num_threads_ = num_threads > 0 ? num_threads : 0;
    return copy;
  }
  /// A copy sharing the pool and thread count but with FRESH stop state: a
  /// deadline or cancel set on the derived context does not reach this
  /// one (and vice versa). This is how a serving layer derives one
  /// per-request context after another over a single shared pool.
  ///
  /// Budgets re-arm: when this context's deadline came from
  /// set_deadline_after(budget), the copy gets the FULL budget measured
  /// from ITS creation — not the parent's partially-burned clock — so a
  /// context derived late still has its whole budget ahead of it.
  /// Absolute deadlines (set_deadline) are not inherited.
  ExecutionContext WithFreshStopState() const {
    ExecutionContext copy = *this;
    const int64_t budget =
        stop_->budget_ticks.load(std::memory_order_acquire);
    copy.stop_ = std::make_shared<StopState>();
    if (budget >= 0) {
      copy.stop_->budget_ticks.store(budget, std::memory_order_relaxed);
      copy.set_deadline(std::chrono::steady_clock::now() +
                        std::chrono::steady_clock::duration(budget));
    }
    return copy;
  }

  // --- tracing ---------------------------------------------------------
  // A context optionally carries a trace and the span id instrumentation
  // should parent under. Both travel with copies (WithThreads and
  // WithFreshStopState preserve them), so a span opened on a worker
  // thread lands under the request's root span with no thread-local
  // state. The default is NO trace: ctx.Span(...) then constructs a
  // disabled ScopedSpan — no clock read, no allocation (the
  // zero-cost-off contract tests/obs_test.cc asserts).

  /// A copy carrying `trace` (may be null = tracing off) with child
  /// spans parented under `span_parent`.
  ExecutionContext WithTrace(std::shared_ptr<obs::Trace> trace,
                             uint64_t span_parent = 0) const {
    ExecutionContext copy = *this;
    copy.trace_ = std::move(trace);
    copy.span_parent_ = span_parent;
    return copy;
  }
  /// The active trace, or null when tracing is off.
  obs::Trace* trace() const { return trace_.get(); }
  uint64_t span_parent() const { return span_parent_; }
  /// An RAII span under this context's parent; a no-op when tracing is
  /// off. `name` must outlive the trace (use string literals).
  obs::ScopedSpan Span(const char* name) const {
    return obs::ScopedSpan(trace_.get(), name, span_parent_);
  }

  // --- deadline / cancellation -----------------------------------------
  // Algorithms poll ShouldStop() at phase boundaries; an interrupted run
  // returns with DpcStats::interrupted set and all labels kUnassigned.
  // Both the cancel flag and the deadline live in shared state, so
  // setting either on ANY copy (including after Run has cloned the
  // context via ResolveContext) reaches every other copy, thread-safely.

  void set_deadline(std::chrono::steady_clock::time_point deadline) const {
    stop_->deadline_ns.store(deadline.time_since_epoch().count(),
                             std::memory_order_release);
  }
  /// Relative budget: arms a deadline now + budget AND records the
  /// budget itself so WithFreshStopState copies can re-arm a full one.
  void set_deadline_after(std::chrono::steady_clock::duration budget) const {
    stop_->budget_ticks.store(budget.count(), std::memory_order_release);
    set_deadline(std::chrono::steady_clock::now() + budget);
  }
  void RequestCancel() const {
    stop_->cancel.store(true, std::memory_order_release);
  }
  bool cancel_requested() const {
    return stop_->cancel.load(std::memory_order_acquire);
  }
  bool ShouldStop() const {
    if (cancel_requested()) return true;
    const int64_t deadline_ns =
        stop_->deadline_ns.load(std::memory_order_acquire);
    return deadline_ns != StopState::kNoDeadline &&
           std::chrono::steady_clock::now().time_since_epoch().count() >
               deadline_ns;
  }

  /// The process-wide pool shared by default-constructed contexts (and
  /// therefore by the deprecated two-arg Run shim): created once, sized
  /// to the hardware, reused across runs and algorithms.
  static const std::shared_ptr<ThreadPool>& SharedDefaultPool() {
    static const std::shared_ptr<ThreadPool> pool =
        std::make_shared<ThreadPool>(0);
    return pool;
  }

 private:
  /// Cancellation + deadline, shared across every copy of a context.
  struct StopState {
    static constexpr int64_t kNoDeadline =
        std::numeric_limits<int64_t>::min();
    static constexpr int64_t kNoBudget = -1;
    std::atomic<bool> cancel{false};
    std::atomic<int64_t> deadline_ns{kNoDeadline};  ///< steady_clock ticks
    /// The relative budget behind deadline_ns when it was set via
    /// set_deadline_after (steady_clock ticks); kNoBudget for absolute
    /// deadlines. WithFreshStopState re-arms copies from this.
    std::atomic<int64_t> budget_ticks{kNoBudget};
  };

  int num_threads_ = 0;
  std::shared_ptr<ThreadPool> pool_;
  std::shared_ptr<StopState> stop_;
  std::shared_ptr<obs::Trace> trace_;  ///< null = tracing off
  uint64_t span_parent_ = 0;
};

}  // namespace dpc

#endif  // DPC_PARALLEL_EXECUTION_CONTEXT_H_
