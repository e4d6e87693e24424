// ClusterServer — the serving layer's engine, now a truly concurrent
// scheduler: one dispatcher thread drains the AdmissionQueue in
// coalesced batches and feeds a fixed set of EXECUTOR LANES; each lane
// leases a shard of the thread budget (serve/shard_pool.h) sized from
// the request's population cost and priority, so several independent
// requests run side by side instead of one-at-a-time at full width.
// With one lane (max_concurrent = 1) the behavior degenerates to the
// classic serial dispatch: every request gets the whole budget.
//
// Concurrent lanes can race identical requests past the batch-window
// coalescing, so an in-flight map (keyed by the same canonical solution
// key as the cache) dedupes them: the first lane computes, twins wait on
// its completion (deadline-aware) and then serve from the cache as hits
// — a coalesced burst still computes once.
//
// The cache is the two-tier SolutionCache (serve/solution_cache.h),
// keyed by the COMPUTE configuration only: a kCluster request whose
// compute key hits answers any (rho_min, delta_min) with an O(n)
// finalize and zero algorithm work. kRethreshold and kGraph requests go
// further — they are answered synchronously at Submit, entirely off the
// dispatcher and every pool, and fail NOT_FOUND when the solution tier
// is cold instead of recomputing. ServerStats::recomputes counts actual
// algorithm executions, so "a re-threshold never recomputes" is an
// observable invariant, not a hope.
//
// Threading note: the dispatcher and the executor lanes are the serve/
// layer's only std::threads; all clustering parallelism still comes from
// parallel/thread_pool.h instances owned by the ShardPool.
//
// Per-request outcomes (ClusterResponse::status):
//   OK                  labels computed (or served from cache/coalesced)
//   kDeadlineExceeded   budget expired in the queue (never ran), waiting
//                       for a shard or an in-flight twin, or mid-run
//                       (the ExecutionContext stopped the algorithm)
//   kNotFound           unknown dataset handle or algorithm name, or a
//                       kRethreshold/kGraph request against a cold cache
//   kInvalidArgument    bad params or per-algorithm options
//   kCancelled          server shut down before the request was admitted
#ifndef DPC_SERVE_SERVER_H_
#define DPC_SERVE_SERVER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/decision_graph.h"
#include "core/dpc.h"
#include "core/kernels.h"
#include "core/registry.h"
#include "core/status.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/execution_context.h"
#include "parallel/thread_pool.h"
#include "serve/dataset_registry.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "serve/shard_pool.h"
#include "serve/solution_cache.h"
#include "store/solution_store.h"

namespace dpc::serve {

struct ServerOptions {
  /// Total worker-thread budget across all concurrently executing
  /// requests (0 = all hardware threads). The ShardPool leases slices of
  /// it per request.
  int pool_threads = 0;
  /// Executor lanes = the most requests executing at once. 0 = auto:
  /// half the thread budget, clamped to [1, 4] — small servers stay
  /// serial, big ones overlap. 1 = classic serial dispatch.
  int max_concurrent = 0;
  /// Byte budget for the in-memory solution tier (entries are charged
  /// their exact serialized size); 0 disables caching (which also makes
  /// every kRethreshold/kGraph request fail NOT_FOUND).
  size_t memory_budget_bytes = 64u << 20;
  /// Path of the persistent solution store's log; empty = no store (the
  /// in-memory cache is the only tier and evictions discard). With a
  /// store, inserts write through, evictions demote, and a restarted
  /// server answers rethreshold/graph WARM from the log.
  std::string store_path;
  /// Ceiling on the store's log file; 0 = unbounded. Enforced by
  /// oldest-first eviction + compaction (store/solution_store.h).
  uint64_t disk_budget_bytes = 0;
  /// Bound on memoized labelings per cached solution (each memo carries
  /// full DpcResult copies — see serve/solution_cache.h).
  size_t labelings_per_solution = 16;
  /// Most submissions admitted per batch.
  size_t max_batch = 8;
  /// How long an admitted batch holds the door open for more arrivals
  /// (bursts coalesce so duplicates hit the cache); zero disables
  /// coalescing.
  std::chrono::steady_clock::duration batch_window =
      std::chrono::milliseconds(2);
};

/// Monotonic counters, snapshotted by stats(). Since PR 9 these are
/// views over the server's MetricRegistry (ClusterServer::metrics()),
/// and `cache` is ONE coherent SolutionCache snapshot — every
/// cache-derived field in a ServerStats comes from a single critical
/// section, so cross-field invariants (cache.lookups ==
/// cache.solution_hits + cache.warm_misses + cache.solution_misses)
/// hold in every copy.
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;           ///< responded OK (computed or cached)
  uint64_t cache_hits = 0;          ///< answered without running the algorithm
  uint64_t recomputes = 0;          ///< actual algorithm Solve executions
  uint64_t rethreshold_served = 0;  ///< kRethreshold/kGraph answered at submit
  uint64_t deadline_exceeded = 0;   ///< expired in queue or mid-run
  uint64_t errors = 0;              ///< NotFound / InvalidArgument / Cancelled
  uint64_t peak_concurrency = 0;    ///< most requests mid-Solve at once
  uint64_t leases_granted = 0;      ///< shard leases taken from the pool
  uint64_t lease_width_total = 0;   ///< sum of granted widths (occupancy)
  uint64_t warm_misses = 0;   ///< memory misses served from the store
  uint64_t promotions = 0;    ///< store solutions re-admitted to memory
  uint64_t demotions = 0;     ///< evictions that kept their store copy
  uint64_t store_bytes = 0;   ///< current size of the store's log file
  /// The cache's full coherent snapshot (occupancy included); the flat
  /// warm_misses/promotions/demotions above are copies of its fields.
  SolutionCache::Stats cache;
};

class ClusterServer {
 public:
  explicit ClusterServer(ServerOptions options = {})
      : options_(std::move(options)),
        shard_pool_(options_.pool_threads),
        lanes_(options_.max_concurrent > 0
                   ? options_.max_concurrent
                   : std::clamp(shard_pool_.total() / 2, 1, 4)),
        store_(OpenStore(options_)),
        cache_(options_.memory_budget_bytes, options_.labelings_per_solution,
               store_.get()) {
    // The server's own registry (NOT obs::MetricRegistry::Default()):
    // tests and side-by-side servers must never share counters. The
    // references are cached once here; every hot-path increment after
    // this is a relaxed atomic op, no registry lock.
    submitted_ = &metrics_.counter("dpc_requests_total");
    completed_ = &metrics_.counter("dpc_requests_completed_total");
    cache_hits_ = &metrics_.counter("dpc_cache_hits_total");
    recomputes_ = &metrics_.counter("dpc_recomputes_total");
    rethreshold_served_ = &metrics_.counter("dpc_rethreshold_served_total");
    deadline_exceeded_ = &metrics_.counter("dpc_deadline_exceeded_total");
    errors_ = &metrics_.counter("dpc_errors_total");
    leases_granted_ = &metrics_.counter("dpc_leases_granted_total");
    lease_width_total_ = &metrics_.counter("dpc_lease_width_total");
    latency_hist_ = &metrics_.histogram("dpc_request_latency_seconds");
    queue_hist_ = &metrics_.histogram("dpc_request_queue_seconds");
    run_hist_ = &metrics_.histogram("dpc_request_run_seconds");
    // Point-in-time depths/occupancy are sampled at scrape, and the
    // cache/store publish their multi-field stats through collectors so
    // each subsystem's sample set is copied under ONE of its own lock
    // acquisitions (the coherent-snapshot path).
    metrics_.AddCollector([this](std::vector<obs::MetricSample>* out) {
      out->push_back(obs::MetricSample::FromGauge(
          "dpc_admission_queue_depth",
          static_cast<double>(queue_.pending())));
      size_t executor_depth = 0;
      {
        std::lock_guard<std::mutex> lock(exec_mu_);
        executor_depth = exec_queue_.size();
      }
      out->push_back(obs::MetricSample::FromGauge(
          "dpc_executor_queue_depth", static_cast<double>(executor_depth)));
      out->push_back(obs::MetricSample::FromGauge(
          "dpc_pool_threads_in_use",
          static_cast<double>(shard_pool_.in_use())));
      out->push_back(obs::MetricSample::FromGauge(
          "dpc_pool_threads_total", static_cast<double>(shard_pool_.total())));
      out->push_back(obs::MetricSample::FromGauge(
          "dpc_requests_running",
          static_cast<double>(running_.load(std::memory_order_relaxed))));
      out->push_back(obs::MetricSample::FromGauge(
          "dpc_peak_concurrency",
          static_cast<double>(
              peak_concurrency_.load(std::memory_order_relaxed))));
      out->push_back(obs::MetricSample::FromGauge(
          "dpc_executor_lanes", static_cast<double>(lanes_)));
    });
    // The selected kernel tier, Prometheus info-style: the identity
    // rides in labels (export renders sample names verbatim, so the
    // label block can live in the name), the value is always 1.
    metrics_.AddCollector([](std::vector<obs::MetricSample>* out) {
      std::string name = "dpc_kernel_tier_info{dispatch=\"";
      name += kernels::DispatchName();
      name += "\",tier=\"";
      name += kernels::ActiveTierName();
      name += "\"}";
      out->push_back(obs::MetricSample::FromGauge(std::move(name), 1.0));
    });
    metrics_.AddCollector([this](std::vector<obs::MetricSample>* out) {
      const SolutionCache::Stats c = cache_.stats();  // one lock, all fields
      using S = obs::MetricSample;
      out->push_back(S::FromCounter("dpc_cache_lookups_total",
                                    static_cast<double>(c.lookups)));
      out->push_back(S::FromCounter("dpc_cache_solution_hits_total",
                                    static_cast<double>(c.solution_hits)));
      out->push_back(S::FromCounter("dpc_cache_solution_misses_total",
                                    static_cast<double>(c.solution_misses)));
      out->push_back(S::FromCounter("dpc_cache_warm_misses_total",
                                    static_cast<double>(c.warm_misses)));
      out->push_back(S::FromCounter("dpc_cache_promotions_total",
                                    static_cast<double>(c.promotions)));
      out->push_back(S::FromCounter("dpc_cache_demotions_total",
                                    static_cast<double>(c.demotions)));
      out->push_back(S::FromCounter("dpc_cache_insertions_total",
                                    static_cast<double>(c.insertions)));
      out->push_back(S::FromCounter("dpc_cache_evictions_total",
                                    static_cast<double>(c.evictions)));
      out->push_back(S::FromCounter("dpc_cache_label_hits_total",
                                    static_cast<double>(c.label_hits)));
      out->push_back(S::FromCounter("dpc_cache_finalizations_total",
                                    static_cast<double>(c.finalizations)));
      out->push_back(
          S::FromGauge("dpc_cache_entries", static_cast<double>(c.entries)));
      out->push_back(S::FromGauge("dpc_cache_bytes_in_use",
                                  static_cast<double>(c.bytes_in_use)));
      out->push_back(S::FromGauge("dpc_cache_budget_bytes",
                                  static_cast<double>(c.budget_bytes)));
    });
    if (store_ != nullptr) {
      metrics_.AddCollector([this](std::vector<obs::MetricSample>* out) {
        const store::SolutionStore::Stats t = store_->stats();  // one lock
        using S = obs::MetricSample;
        out->push_back(
            S::FromCounter("dpc_store_puts_total", static_cast<double>(t.puts)));
        out->push_back(S::FromCounter("dpc_store_fetches_total",
                                      static_cast<double>(t.fetches)));
        out->push_back(S::FromCounter("dpc_store_pool_hits_total",
                                      static_cast<double>(t.pool_hits)));
        out->push_back(S::FromCounter("dpc_store_log_reads_total",
                                      static_cast<double>(t.log_reads)));
        out->push_back(S::FromCounter("dpc_store_decode_failures_total",
                                      static_cast<double>(t.decode_failures)));
        out->push_back(S::FromCounter("dpc_store_compactions_total",
                                      static_cast<double>(t.compactions)));
        out->push_back(S::FromCounter("dpc_store_budget_evictions_total",
                                      static_cast<double>(t.budget_evictions)));
        out->push_back(S::FromGauge("dpc_store_log_bytes",
                                    static_cast<double>(t.log_bytes)));
        out->push_back(S::FromGauge("dpc_store_live_solutions",
                                    static_cast<double>(t.live_solutions)));
        out->push_back(S::FromGauge("dpc_store_live_payload_bytes",
                                    static_cast<double>(t.live_payload_bytes)));
        out->push_back(S::FromGauge("dpc_store_pool_bytes_in_use",
                                    static_cast<double>(t.pool_bytes_in_use)));
      });
    }
    executors_.reserve(static_cast<size_t>(lanes_));
    for (int i = 0; i < lanes_; ++i) {
      executors_.emplace_back([this] { ExecutorLoop(); });
    }
    dispatcher_ = std::thread([this] { ServeLoop(); });
  }

  ClusterServer(const ClusterServer&) = delete;
  ClusterServer& operator=(const ClusterServer&) = delete;

  ~ClusterServer() { Shutdown(); }

  DatasetRegistry& datasets() { return datasets_; }
  const DatasetRegistry& datasets() const { return datasets_; }
  SolutionCache& cache() { return cache_; }
  /// The persistent store behind the cache, or null when store_path was
  /// empty (or the log failed to open — the server then runs storeless).
  const store::SolutionStore* store() const { return store_.get(); }
  int lanes() const { return lanes_; }

  /// This server's metric registry: the counters/histograms above plus
  /// the coherent cache/store/occupancy collectors. Snapshot() is the
  /// one scrape path (obs/export.h renders it as Prometheus text/JSON).
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }

  /// Attaches (or detaches, with null) a trace: every subsequently
  /// executed request emits a "request" span tree — queue wait, cache
  /// probe, lease wait, solve with per-phase children (and per-shard
  /// spans from worker threads for sharded runs), cache insert,
  /// finalize. Requests already in flight keep the trace they started
  /// with; tracing off is the default and costs nothing.
  void set_trace(std::shared_ptr<obs::Trace> trace) {
    std::lock_guard<std::mutex> lock(trace_mu_);
    trace_ = std::move(trace);
  }
  std::shared_ptr<obs::Trace> trace() const {
    std::lock_guard<std::mutex> lock(trace_mu_);
    return trace_;
  }

  /// Validates and admits the request; the response arrives through the
  /// returned future once an executor lane serves it. Invalid requests
  /// and submissions after Shutdown resolve immediately (the shutdown
  /// check lives inside AdmissionQueue::Push, under the queue lock, so a
  /// Submit racing Shutdown either lands in the drained-by-dispatcher
  /// queue or is rejected — never stranded). kRethreshold and kGraph
  /// requests resolve synchronously here: the threshold phase is O(n)
  /// against a cached solution, so they bypass the queue, the batch
  /// window, and every pool entirely.
  std::future<ClusterResponse> Submit(ClusterRequest request) {
    submitted_->Inc();
    if (const Status s = request.Validate(); !s.ok()) {
      errors_->Inc();
      return Resolved(s);
    }
    if (request.kind != RequestKind::kCluster) {
      // Honor the post-Shutdown contract on the synchronous path too: the
      // queue-based kinds are rejected by AdmissionQueue::Push, so the
      // cache-only kinds must not keep answering against a server that is
      // tearing down.
      if (queue_.shutdown_requested()) {
        errors_->Inc();
        return Resolved(Status::Cancelled("server is shut down"));
      }
      // The synchronous path still reports submit->respond latency (the
      // re-threshold fast path is exactly what p50 should show off) and,
      // when tracing, a request span with the finalize child.
      const std::shared_ptr<obs::Trace> trace = this->trace();
      const auto sync_start = std::chrono::steady_clock::now();
      obs::ScopedSpan request_span(trace.get(), "request");
      obs::ScopedSpan finalize_span(trace.get(), "rethreshold-finalize",
                                    request_span.id());
      std::promise<ClusterResponse> promise;
      promise.set_value(ServeFromCacheOnly(request));
      finalize_span.End();
      request_span.End();
      latency_hist_->Observe(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - sync_start)
                                 .count());
      return promise.get_future();
    }
    bool accepted = true;
    std::future<ClusterResponse> future =
        queue_.Push(std::move(request), &accepted);
    if (!accepted) errors_->Inc();
    return future;
  }

  /// Stops admission, serves everything already queued, and joins the
  /// dispatcher and every executor lane. Idempotent and safe to race
  /// (e.g. an explicit Shutdown against the destructor).
  void Shutdown() {
    queue_.Shutdown();
    std::lock_guard<std::mutex> lock(join_mu_);
    // Dispatcher exit implies every admitted submission reached the
    // executor queue and exec_done_ is set; lanes then drain and exit.
    if (dispatcher_.joinable()) dispatcher_.join();
    for (std::thread& t : executors_) {
      if (t.joinable()) t.join();
    }
  }

  ServerStats stats() const {
    ServerStats s;
    s.submitted = submitted_->value();
    s.completed = completed_->value();
    s.cache_hits = cache_hits_->value();
    s.recomputes = recomputes_->value();
    s.rethreshold_served = rethreshold_served_->value();
    s.deadline_exceeded = deadline_exceeded_->value();
    s.errors = errors_->value();
    s.peak_concurrency = peak_concurrency_.load(std::memory_order_relaxed);
    s.leases_granted = leases_granted_->value();
    s.lease_width_total = lease_width_total_->value();
    // ONE coherent cache snapshot; the flat fields are views of it, so a
    // ServerStats can never show e.g. promotions from one instant and
    // warm_misses from another.
    s.cache = cache_.stats();
    s.warm_misses = s.cache.warm_misses;
    s.promotions = s.cache.promotions;
    s.demotions = s.cache.demotions;
    if (store_ != nullptr) s.store_bytes = store_->stats().log_bytes;
    return s;
  }

 private:
  /// Opens (creating if needed) the persistent store, replaying its log.
  /// Failure is survivable — the server runs storeless with a warning —
  /// EXCEPT silently: the operator sees why restarts will come up cold.
  static std::unique_ptr<store::SolutionStore> OpenStore(
      const ServerOptions& options) {
    if (options.store_path.empty()) return nullptr;
    store::SolutionStoreOptions store_options;
    store_options.disk_budget_bytes = options.disk_budget_bytes;
    auto opened = store::SolutionStore::Open(options.store_path, store_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "warning: solution store disabled: %s\n",
                   opened.status().ToString().c_str());
      return nullptr;
    }
    return std::move(opened).value();
  }

  /// A steady_clock time_point on obs::Trace's ns timeline (same clock,
  /// same epoch — Trace::NowNs is steady_clock too).
  static uint64_t ToTraceNs(std::chrono::steady_clock::time_point tp) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp.time_since_epoch())
            .count());
  }

  static std::future<ClusterResponse> Resolved(Status status) {
    std::promise<ClusterResponse> promise;
    ClusterResponse response;
    response.status = std::move(status);
    promise.set_value(std::move(response));
    return promise.get_future();
  }

  /// Resolves the dataset and algorithm for a request, or returns the
  /// error status through *failure. Resolving (and thereby validating)
  /// the algorithm happens BEFORE any cache access: canonicalization is
  /// type-blind ("1e1" renders like "10"), so an invalid spelling could
  /// otherwise hit a valid config's cache entry and succeed iff the
  /// cache happens to be warm.
  std::shared_ptr<const NamedDataset> ResolveRequest(
      const ClusterRequest& request,
      StatusOr<std::unique_ptr<DpcAlgorithm>>* algo, Status* failure) {
    std::shared_ptr<const NamedDataset> dataset =
        datasets_.Find(request.dataset);
    if (dataset == nullptr) {
      *failure = Status::NotFound("unknown dataset handle '" +
                                  request.dataset + "'");
      return nullptr;
    }
    *algo = MakeAlgorithmByName(request.algorithm, request.options);
    if (!algo->ok()) {
      *failure = algo->status();
      return nullptr;
    }
    return dataset;
  }

  /// The pool-free path for kRethreshold/kGraph: answer from the
  /// solution cache or fail NOT_FOUND — never compute.
  ClusterResponse ServeFromCacheOnly(const ClusterRequest& request) {
    ClusterResponse response;
    StatusOr<std::unique_ptr<DpcAlgorithm>> algo(Status::Ok());
    const std::shared_ptr<const NamedDataset> dataset =
        ResolveRequest(request, &algo, &response.status);
    if (dataset == nullptr) {
      errors_->Inc();
      return response;
    }
    const std::string key =
        MakeSolutionKey(dataset->fingerprint, request.algorithm,
                        request.options, request.params.compute());
    if (request.kind == RequestKind::kGraph) {
      const std::shared_ptr<const DpcSolution> solution = cache_.Lookup(key);
      if (solution == nullptr) return ColdCache(request, &response);
      response.graph =
          TopGammaPoints(solution->rho, solution->delta, request.graph_top_k);
    } else {
      response.result = cache_.Finalize(key, request.params.threshold());
      if (response.result == nullptr) return ColdCache(request, &response);
    }
    response.cache_hit = true;
    completed_->Inc();
    cache_hits_->Inc();
    rethreshold_served_->Inc();
    return response;
  }

  ClusterResponse ColdCache(const ClusterRequest& request,
                            ClusterResponse* response) {
    errors_->Inc();
    response->status = Status::NotFound(
        std::string(ToString(request.kind)) +
        " request found no cached solution for this compute configuration; "
        "submit a cluster request first");
    return std::move(*response);
  }

  void ServeLoop() {
    for (;;) {
      std::vector<Submission> batch =
          queue_.PopBatch(options_.max_batch, options_.batch_window);
      const bool drained = batch.empty();  // shutdown, queue drained
      {
        std::lock_guard<std::mutex> lock(exec_mu_);
        for (Submission& s : batch) exec_queue_.push_back(std::move(s));
        if (drained) exec_done_ = true;
      }
      exec_cv_.notify_all();
      if (drained) return;
    }
  }

  void ExecutorLoop() {
    for (;;) {
      Submission s;
      {
        std::unique_lock<std::mutex> lock(exec_mu_);
        exec_cv_.wait(lock,
                      [this] { return exec_done_ || !exec_queue_.empty(); });
        if (exec_queue_.empty()) return;  // done and drained
        s = std::move(exec_queue_.front());
        exec_queue_.pop_front();
      }
      Execute(s);
    }
  }

  /// Erases the in-flight entry and wakes every waiting twin; runs on
  /// every path out of the compute section once a lane registered as the
  /// key's computer (including failures — twins then recompute).
  class InflightSettle {
   public:
    InflightSettle(ClusterServer* server, const std::string* key,
                   std::promise<void>* done)
        : server_(server), key_(key), done_(done) {}
    InflightSettle(const InflightSettle&) = delete;
    InflightSettle& operator=(const InflightSettle&) = delete;
    ~InflightSettle() {
      if (server_ == nullptr) return;
      {
        std::lock_guard<std::mutex> lock(server_->inflight_mu_);
        server_->inflight_.erase(*key_);
      }
      done_->set_value();
    }

   private:
    ClusterServer* server_;
    const std::string* key_;
    std::promise<void>* done_;
  };

  /// The one respond path for queued submissions: records the
  /// submit->respond latency histogram (plus the queue-wait and run-time
  /// components) and resolves the promise. Every outcome — success,
  /// deadline, error — flows through here, so the latency distribution
  /// covers the full mix, not just the happy path.
  void Respond(Submission& s, ClusterResponse&& response) {
    latency_hist_->Observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               s.admitted_at)
                               .count());
    queue_hist_->Observe(response.queue_seconds);
    if (response.run_seconds > 0.0) run_hist_->Observe(response.run_seconds);
    s.promise.set_value(std::move(response));
  }

  void Execute(Submission& s) {
    // Requests executing when a trace is attached emit a span tree under
    // one root "request" span; the trace shared_ptr is pinned for the
    // whole execution so a mid-request set_trace(nullptr) cannot pull it
    // out from under the spans.
    const std::shared_ptr<obs::Trace> trace = this->trace();
    obs::ScopedSpan request_span(trace.get(), "request");
    ClusterResponse response;
    const auto start = std::chrono::steady_clock::now();
    response.queue_seconds =
        std::chrono::duration<double>(start - s.admitted_at).count();
    if (trace != nullptr) {
      // The queue wait already happened — record it retroactively from
      // the admission stamp (same steady_clock timeline as NowNs).
      trace->RecordComplete("queue-wait", request_span.id(),
                            ToTraceNs(s.admitted_at), ToTraceNs(start));
    }

    if (start >= s.deadline_at) {
      deadline_exceeded_->Inc();
      response.status = Status::DeadlineExceeded(
          "deadline expired after " + std::to_string(response.queue_seconds) +
          "s in queue");
      return Respond(s, std::move(response));
    }

    StatusOr<std::unique_ptr<DpcAlgorithm>> algo(Status::Ok());
    const std::shared_ptr<const NamedDataset> dataset =
        ResolveRequest(s.request, &algo, &response.status);
    if (dataset == nullptr) {
      errors_->Inc();
      return Respond(s, std::move(response));
    }

    const ThresholdSpec threshold = s.request.params.threshold();
    const std::string key =
        MakeSolutionKey(dataset->fingerprint, s.request.algorithm,
                        s.request.options, s.request.params.compute());
    // Solution-tier hit: ANY threshold is a finalize-only answer — the
    // re-threshold fast path that makes decision-graph exploration a
    // memory-speed workload.
    {
      obs::ScopedSpan probe(trace.get(), "cache-probe", request_span.id());
      if (std::shared_ptr<const DpcResult> cached =
              cache_.Finalize(key, threshold)) {
        completed_->Inc();
        cache_hits_->Inc();
        response.result = std::move(cached);
        response.cache_hit = true;
        return Respond(s, std::move(response));
      }
    }

    // In-flight dedup: with several lanes, identical requests can race
    // past both the batch coalescing and the cache check above. The
    // first lane registers as the key's computer; twins wait
    // (deadline-aware) and then serve from the now-warm cache as hits.
    std::promise<void> inflight_done;
    std::shared_future<void> twin;
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      const auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        twin = it->second;
      } else {
        inflight_.emplace(key, inflight_done.get_future().share());
      }
    }
    if (twin.valid()) {
      obs::ScopedSpan twin_span(trace.get(), "inflight-wait",
                                request_span.id());
      if (s.deadline_at != std::chrono::steady_clock::time_point::max()) {
        if (twin.wait_until(s.deadline_at) != std::future_status::ready) {
          deadline_exceeded_->Inc();
          response.status = Status::DeadlineExceeded(
              "deadline expired waiting for an identical in-flight request");
          return Respond(s, std::move(response));
        }
      } else {
        twin.wait();
      }
      twin_span.End();
      if (std::shared_ptr<const DpcResult> cached =
              cache_.Finalize(key, threshold)) {
        completed_->Inc();
        cache_hits_->Inc();
        response.result = std::move(cached);
        response.cache_hit = true;
        return Respond(s, std::move(response));
      }
      // The twin failed or the cache is disabled: compute ourselves,
      // without re-registering (a second failure must not cascade waits).
      return Compute(s, std::move(response), *dataset, *algo.value(), key,
                     threshold, nullptr, trace, request_span.id());
    }
    InflightSettle settle(this, &key, &inflight_done);
    Compute(s, std::move(response), *dataset, *algo.value(), key, threshold,
            &settle, trace, request_span.id());
  }

  /// The actual solve: lease a shard of the budget sized from the §4.5
  /// population cost and the request priority, run with a per-request
  /// deadline context on the leased pool, insert into the cache, then
  /// respond. `settle` (may be null) wakes in-flight twins on scope exit
  /// — after the cache insert, so they find it warm.
  void Compute(Submission& s, ClusterResponse response,
               const NamedDataset& dataset, DpcAlgorithm& algo,
               const std::string& key, const ThresholdSpec& threshold,
               InflightSettle* settle,
               const std::shared_ptr<obs::Trace>& trace,
               uint64_t request_span_id) {
    (void)settle;  // held by the caller; named here for the contract
    // LPT-profile-aware width when the registry computed one (skewed
    // datasets plan wider shards); flat |P| model otherwise.
    const int width =
        dataset.cost_profile.empty()
            ? PlanShardWidth(shard_pool_.total(), lanes_,
                             static_cast<int64_t>(dataset.points.size()),
                             s.request.priority)
            : PlanShardWidth(shard_pool_.total(), lanes_,
                             dataset.cost_profile, s.request.priority);
    obs::ScopedSpan lease_span(trace.get(), "lease-wait", request_span_id);
    std::optional<ShardPool::Lease> lease =
        shard_pool_.Acquire(width, s.deadline_at);
    lease_span.End();
    if (!lease.has_value()) {
      deadline_exceeded_->Inc();
      response.status = Status::DeadlineExceeded(
          "deadline expired waiting for a pool shard");
      return Respond(s, std::move(response));
    }
    leases_granted_->Inc();
    lease_width_total_->Inc(static_cast<uint64_t>(lease->width()));

    // Per-request context on the leased pool: deadline and cancellation
    // are this request's alone. Solve takes its whole execution policy
    // from this context.
    ExecutionContext ctx(lease->width(), lease->pool());
    if (s.deadline_at != std::chrono::steady_clock::time_point::max()) {
      ctx.set_deadline(s.deadline_at);
    }

    const uint64_t running = running_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t peak = peak_concurrency_.load(std::memory_order_relaxed);
    while (running > peak && !peak_concurrency_.compare_exchange_weak(
                                 peak, running, std::memory_order_relaxed)) {
    }
    // The solve span parents the per-phase children (solve/build, /rho,
    // /delta, /stamp — emitted by DpcAlgorithm::Solve) and any per-shard
    // worker spans; the context carries the trace + parent id down.
    obs::ScopedSpan solve_span(trace.get(), "solve", request_span_id);
    if (trace != nullptr) ctx = ctx.WithTrace(trace, solve_span.id());
    const auto run_start = std::chrono::steady_clock::now();
    DpcSolution solution = algo.Solve(dataset.points,
                                      s.request.params.compute(), ctx,
                                      dataset.fingerprint);
    solve_span.End();
    running_.fetch_sub(1, std::memory_order_relaxed);
    lease->Release();
    recomputes_->Inc();
    response.run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count();

    if (solution.interrupted()) {
      deadline_exceeded_->Inc();
      response.status = Status::DeadlineExceeded(
          "deadline expired after " + std::to_string(response.run_seconds) +
          "s of execution");
      return Respond(s, std::move(response));
    }

    auto shared = std::make_shared<const DpcSolution>(std::move(solution));
    {
      obs::ScopedSpan insert_span(trace.get(), "cache-insert",
                                  request_span_id);
      cache_.Insert(key, shared, shared->compute_cost_seconds);
    }
    // Label through the cache so this first threshold is memoized and
    // later identical requests alias the same immutable result; the
    // fallback covers a disabled (capacity 0) cache.
    obs::ScopedSpan finalize_span(trace.get(), "finalize", request_span_id);
    response.result = cache_.Finalize(key, threshold);
    if (response.result == nullptr) {
      response.result =
          std::make_shared<const DpcResult>(FinalizeSolution(*shared, threshold));
    }
    finalize_span.End();
    completed_->Inc();
    Respond(s, std::move(response));
  }

  const ServerOptions options_;
  ShardPool shard_pool_;
  const int lanes_;
  DatasetRegistry datasets_;
  /// Declared before cache_ (which holds a raw pointer into it) so the
  /// cache dies first on teardown.
  std::unique_ptr<store::SolutionStore> store_;
  SolutionCache cache_;
  AdmissionQueue queue_;

  /// The server's metric registry and cached handles into it (set once
  /// in the constructor; hot-path increments are lock-free). running_ /
  /// peak_concurrency_ stay raw atomics — the CAS-max update isn't a
  /// counter op — and are exposed through the gauge collector.
  obs::MetricRegistry metrics_;
  obs::Counter* submitted_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* recomputes_ = nullptr;
  obs::Counter* rethreshold_served_ = nullptr;
  obs::Counter* deadline_exceeded_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* leases_granted_ = nullptr;
  obs::Counter* lease_width_total_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;
  obs::Histogram* queue_hist_ = nullptr;
  obs::Histogram* run_hist_ = nullptr;
  std::atomic<uint64_t> running_{0};
  std::atomic<uint64_t> peak_concurrency_{0};

  mutable std::mutex trace_mu_;
  std::shared_ptr<obs::Trace> trace_;  ///< null = tracing off (default)

  std::mutex inflight_mu_;
  std::unordered_map<std::string, std::shared_future<void>> inflight_;

  std::mutex exec_mu_;
  std::condition_variable exec_cv_;
  std::deque<Submission> exec_queue_;  ///< guarded by exec_mu_
  bool exec_done_ = false;             ///< guarded by exec_mu_

  std::mutex join_mu_;  ///< serializes racing Shutdown calls
  // Last members: lanes and dispatcher start after everything they use.
  std::vector<std::thread> executors_;
  std::thread dispatcher_;
};

}  // namespace dpc::serve

#endif  // DPC_SERVE_SERVER_H_
