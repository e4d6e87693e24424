// Core vocabulary of the density-peaks clustering (DPC) library
// reproducing Amagata & Hara, "Fast Density-Peaks Clustering:
// Multicore-based Parallelization Approach" (SIGMOD'21).
//
// DPC assigns each point p
//   rho(p)   — local density: |{q != p : dist(p, q) <= d_cut}|
//   delta(p) — dependent distance: distance to the nearest point denser
//              than p (+inf for the globally densest point)
// Centers are the points with rho >= rho_min and delta >= delta_min;
// every other non-noise point joins the cluster of its dependent point
// (its nearest denser neighbor). Points with rho < rho_min are noise.
//
// The pipeline splits into two phases with wildly different costs, and
// the split is first-class in the API:
//
//   compute   — rho/delta/dependency. Depends only on ComputeParams
//               (d_cut, epsilon) and dominates the runtime: this is what
//               the paper parallelizes. An algorithm's canonical output
//               is a DpcSolution, the reusable artifact of this phase.
//   threshold — center selection + label propagation from a
//               ThresholdSpec (rho_min, delta_min). A pure O(n) pass
//               over a solution (LabelSolution / FinalizeSolution), so
//               decision-graph exploration — many thresholds against one
//               compute — never re-runs the expensive phase.
//
// The legacy Run(points, DpcParams) -> DpcResult entry point remains as
// a shim composing the two.
//
// Ties in rho are broken by point id (smaller id counts as denser), which
// makes every phase — and therefore every label — deterministic for a
// fixed input, independent of thread count.
#ifndef DPC_CORE_DPC_H_
#define DPC_CORE_DPC_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "core/rng.h"
#include "core/status.h"
#include "parallel/execution_context.h"
#include "parallel/parallel_for.h"

namespace dpc {

using PointId = int64_t;

/// Label values with special meaning in DpcResult::label.
inline constexpr int64_t kNoise = -1;
inline constexpr int64_t kUnassigned = -2;

/// A dense row-major set of dim-dimensional points.
class PointSet {
 public:
  explicit PointSet(int dim) : dim_(dim > 0 ? dim : 1) {}

  PointId size() const {
    return static_cast<PointId>(coords_.size()) / dim_;
  }
  int dim() const { return dim_; }
  bool empty() const { return coords_.empty(); }

  const double* operator[](PointId i) const {
    return coords_.data() + static_cast<size_t>(i) * static_cast<size_t>(dim_);
  }
  double* MutablePoint(PointId i) {
    return coords_.data() + static_cast<size_t>(i) * static_cast<size_t>(dim_);
  }
  double Coord(PointId i, int d) const { return (*this)[i][d]; }

  void Reserve(PointId n) {
    coords_.reserve(static_cast<size_t>(n) * static_cast<size_t>(dim_));
  }
  /// Appends one point; p must hold dim() doubles.
  void Add(const double* p) { coords_.insert(coords_.end(), p, p + dim_); }
  /// Appends one uninitialized point and returns its mutable storage.
  double* AddUninitialized() {
    coords_.resize(coords_.size() + static_cast<size_t>(dim_));
    return coords_.data() + coords_.size() - static_cast<size_t>(dim_);
  }

  /// A deterministic Bernoulli(fraction) subsample (order-preserving).
  PointSet Sample(double fraction, uint64_t seed) const {
    PointSet out(dim_);
    if (fraction >= 1.0) {
      out.coords_ = coords_;
      return out;
    }
    Rng rng(seed);
    const PointId n = size();
    out.Reserve(static_cast<PointId>(static_cast<double>(n) * fraction) + 16);
    for (PointId i = 0; i < n; ++i) {
      if (rng.NextDouble() < fraction) out.Add((*this)[i]);
    }
    return out;
  }

  const std::vector<double>& raw() const { return coords_; }

 private:
  int dim_;
  std::vector<double> coords_;
};

/// Content hash of a point set: two sets fingerprint equal iff they hold
/// the same coordinates in the same order at the same dimensionality.
/// Identifies the input a DpcSolution was computed from — and keys the
/// serving layer's caches — without retaining the points themselves.
inline uint64_t FingerprintPoints(const PointSet& points) {
  const int32_t dim = points.dim();
  const int64_t n = points.size();
  uint64_t h = Fnv1aBytes(&dim, sizeof(dim));
  h = Fnv1aBytes(&n, sizeof(n), h);
  return Fnv1aBytes(points.raw().data(), points.raw().size() * sizeof(double),
                    h);
}

inline double SquaredDistance(const double* a, const double* b, int dim) {
  double s = 0.0;
  for (int d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

inline double Distance(const double* a, const double* b, int dim) {
  return std::sqrt(SquaredDistance(a, b, dim));
}

/// Knobs of the expensive compute phase. Everything rho/delta/dependency
/// depend on (besides the points and the per-algorithm options) lives
/// here; two runs sharing ComputeParams share their DpcSolution.
struct ComputeParams {
  double d_cut = 0.0;    ///< density ball radius (> 0)
  double epsilon = 1.0;  ///< S-Approx-DPC approximation knob (ignored elsewhere)

  Status Validate() const {
    if (!(d_cut > 0.0)) {
      return Status::InvalidArgument("d_cut must be positive");
    }
    if (!(epsilon > 0.0)) {
      return Status::InvalidArgument("epsilon must be positive");
    }
    return Status::Ok();
  }
};

/// Knobs of the cheap threshold phase: how labels are derived from a
/// DpcSolution's decision graph. Changing these never requires recompute.
struct ThresholdSpec {
  double rho_min = 0.0;    ///< points below this density are noise
  double delta_min = 0.0;  ///< center threshold on the decision graph (> d_cut)
  /// Also derive the cluster core/halo split downstream (core/halo.h) —
  /// carried here so tools can treat it as part of the labeling request.
  bool halo = false;

  /// d_cut is the compute-phase radius the thresholds must respect:
  /// grid-based algorithms guarantee exact centers only above the cell
  /// diameter (= d_cut).
  Status Validate(double d_cut) const {
    if (rho_min < 0.0) {
      return Status::InvalidArgument("rho_min must be non-negative");
    }
    if (!(delta_min > d_cut)) {
      return Status::InvalidArgument(
          "delta_min must exceed d_cut (grid-based algorithms guarantee "
          "exact centers only above the cell diameter)");
    }
    return Status::Ok();
  }
};

/// User-facing knobs, shared by every algorithm: the legacy flat bundle,
/// now a composition of ComputeParams and ThresholdSpec (see compute() /
/// threshold()). Kept flat for source compatibility with callers that
/// assign params.d_cut etc. directly.
struct DpcParams {
  double d_cut = 0.0;      ///< density ball radius (> 0)
  double rho_min = 0.0;    ///< points below this density are noise
  double delta_min = 0.0;  ///< center threshold on the decision graph (> d_cut)
  double epsilon = 1.0;    ///< S-Approx-DPC approximation knob (ignored elsewhere)

  /// The compute-phase projection of these params.
  ComputeParams compute() const { return ComputeParams{d_cut, epsilon}; }
  /// The threshold-phase projection of these params.
  ThresholdSpec threshold() const {
    return ThresholdSpec{rho_min, delta_min, false};
  }

  Status Validate() const {
    if (const Status s = compute().Validate(); !s.ok()) return s;
    return threshold().Validate(d_cut);
  }
};

/// The flat bundle reassembled from its two phases.
inline DpcParams ComposeParams(const ComputeParams& compute,
                               const ThresholdSpec& threshold) {
  DpcParams params;
  params.d_cut = compute.d_cut;
  params.epsilon = compute.epsilon;
  params.rho_min = threshold.rho_min;
  params.delta_min = threshold.delta_min;
  return params;
}

/// Per-phase wall times plus index footprint, filled by every Run().
struct DpcStats {
  double build_seconds = 0.0;  ///< index (kd-tree / grid) construction
  double rho_seconds = 0.0;    ///< local-density phase
  double delta_seconds = 0.0;  ///< dependent-distance phase
  double label_seconds = 0.0;  ///< center selection + label propagation
  double total_seconds = 0.0;
  size_t index_memory_bytes = 0;
  /// True when the run stopped early because the ExecutionContext's
  /// deadline passed or RequestCancel() was called; every label is
  /// kUnassigned and later-phase stats are zero.
  bool interrupted = false;
};

/// True iff q ranks denser than p (rho desc, id asc tie-break). This is
/// the total order used for dependency targets everywhere.
inline bool DenserThan(double rho_q, PointId q, double rho_p, PointId p) {
  return rho_q > rho_p || (rho_q == rho_p && q < p);
}

/// Ids sorted densest-first under DenserThan.
inline std::vector<PointId> DensityOrder(const std::vector<double>& rho) {
  std::vector<PointId> order(rho.size());
  std::iota(order.begin(), order.end(), PointId{0});
  std::sort(order.begin(), order.end(), [&rho](PointId a, PointId b) {
    return DenserThan(rho[static_cast<size_t>(a)], a, rho[static_cast<size_t>(b)], b);
  });
  return order;
}

/// DensityOrder(rho) on the context's pool: one contiguous chunk of ids
/// per thread is sorted concurrently, then pairs of sorted runs merge
/// concurrently, round by round. DenserThan is a strict total order (ids
/// break every rho tie), so the result equals DensityOrder(rho) exactly.
inline std::vector<PointId> DensityOrder(const std::vector<double>& rho,
                                         const ExecutionContext& ctx) {
  const int64_t n = static_cast<int64_t>(rho.size());
  const int64_t runs = ctx.threads();
  if (runs <= 1 || n < internal::kMinParallelIterations) {
    return DensityOrder(rho);
  }
  const auto denser = [&rho](PointId a, PointId b) {
    return DenserThan(rho[static_cast<size_t>(a)], a, rho[static_cast<size_t>(b)], b);
  };
  // Run k spans [bound(k), bound(k + 1)); bound clamps past the last run.
  const auto bound = [n, runs](int64_t k) { return std::min(k, runs) * n / runs; };
  std::vector<PointId> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), PointId{0});
  ParallelTasks(ctx, runs, [&](int64_t k) {
    std::sort(order.begin() + bound(k), order.begin() + bound(k + 1), denser);
  });
  std::vector<PointId> merged(static_cast<size_t>(n));
  for (int64_t width = 1; width < runs; width *= 2) {
    ParallelTasks(ctx, (runs + 2 * width - 1) / (2 * width), [&](int64_t m) {
      const int64_t lo = bound(2 * m * width);
      const int64_t mid = bound((2 * m + 1) * width);
      const int64_t hi = bound((2 * m + 2) * width);
      std::merge(order.begin() + lo, order.begin() + mid, order.begin() + mid,
                 order.begin() + hi, merged.begin() + lo, denser);
    });
    order.swap(merged);
  }
  return order;
}

/// The compute phase's reusable artifact: everything the expensive
/// phases produced, plus the metadata that identifies which (points,
/// algorithm, compute params) it answers for and what it cost. Any
/// ThresholdSpec can be applied to it with LabelSolution /
/// FinalizeSolution at O(n) — the paper's decision-graph workflow.
struct DpcSolution {
  std::string algorithm;            ///< producing DpcAlgorithm::name()
  uint64_t points_fingerprint = 0;  ///< FingerprintPoints of the input
  ComputeParams compute;            ///< params the phases ran under

  std::vector<double> rho;          ///< local density per point
  std::vector<double> delta;        ///< dependent distance (+inf for the peak)
  std::vector<PointId> dependency;  ///< nearest denser neighbor (-1 for the peak)
  /// Ids densest-first (DensityOrder(rho), sorted on the solve's pool),
  /// precomputed once so every re-threshold is a sort-free O(n) pass.
  /// Empty for interrupted solves.
  std::vector<PointId> density_order;

  DpcStats stats;  ///< compute phases only; label_seconds stays 0
  /// Wall cost of producing this solution (build + rho + delta) — what a
  /// cache gives back per hit, and what cost-aware eviction weighs.
  double compute_cost_seconds = 0.0;

  PointId size() const { return static_cast<PointId>(rho.size()); }
  bool interrupted() const { return stats.interrupted; }
};

/// Full clustering output. rho/delta/dependency are retained so callers
/// can re-threshold (FinalizeClusters) without re-running the expensive
/// phases — the decision-graph workflow of the paper's Figure 1.
struct DpcResult {
  std::vector<int64_t> label;      ///< cluster id, kNoise, or kUnassigned
  std::vector<double> rho;         ///< local density per point
  std::vector<double> delta;       ///< dependent distance (+inf for the peak)
  std::vector<PointId> dependency; ///< nearest denser neighbor (-1 for the peak)
  std::vector<PointId> centers;    ///< point id of each cluster center
  DpcStats stats;

  int64_t num_clusters() const { return static_cast<int64_t>(centers.size()); }
  bool is_noise(PointId i) const { return label[static_cast<size_t>(i)] == kNoise; }
};

/// Labels + centers alone — what the threshold phase produces when the
/// caller already holds the solution (serving-layer label memos).
struct Labeling {
  std::vector<int64_t> label;
  std::vector<PointId> centers;
};

namespace internal {

/// The shared labeling pass: center selection by (rho_min, delta_min),
/// then propagation along dependency chains in density order. `order`
/// must be DensityOrder(rho).
inline void LabelWithOrder(const std::vector<double>& rho,
                           const std::vector<double>& delta,
                           const std::vector<PointId>& dependency,
                           const std::vector<PointId>& order,
                           const ThresholdSpec& spec,
                           std::vector<int64_t>* label,
                           std::vector<PointId>* centers) {
  centers->clear();
  label->assign(rho.size(), kNoise);
  for (const PointId id : order) {
    const size_t i = static_cast<size_t>(id);
    if (rho[i] < spec.rho_min) continue;  // noise
    if (delta[i] >= spec.delta_min) {
      (*label)[i] = static_cast<int64_t>(centers->size());
      centers->push_back(id);
    } else {
      const PointId dep = dependency[i];
      // dep is denser than id, hence already labeled and never noise
      // (rho[dep] >= rho[id] >= rho_min); dep == -1 only for the global
      // peak, whose delta is +inf >= delta_min.
      (*label)[i] = dep >= 0 ? (*label)[static_cast<size_t>(dep)] : kNoise;
    }
  }
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }
  double Lap() {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Phase-boundary cancellation/deadline check shared by every algorithm:
/// when the context says stop, marks the solution interrupted (rho/delta
/// keep whatever phases completed; labeling never runs on it).
inline bool Interrupted(const ExecutionContext& ctx, DpcSolution* solution) {
  if (!ctx.ShouldStop()) return false;
  solution->stats.interrupted = true;
  return true;
}

/// Re-tiles a solve's phase laps as back-to-back child spans. Every
/// algorithm times its phases with consecutive WallTimer::Lap() calls
/// from the top of SolveImpl, so [solve_start, solve_start + build),
/// [.., + rho), [.., + delta) reconstructs the real phase intervals to
/// lap precision — which is how ALL SEVEN algorithms emit per-phase
/// spans from one integration point (DpcAlgorithm::Solve) with zero
/// instrumentation inside their bodies. An interrupted run only emits
/// the phases that actually accumulated time.
inline void RecordSolvePhaseSpans(obs::Trace* trace, uint64_t parent,
                                  uint64_t solve_start_ns,
                                  const DpcStats& stats) {
  const struct {
    const char* name;
    double seconds;
  } phases[] = {{"solve/build", stats.build_seconds},
                {"solve/rho", stats.rho_seconds},
                {"solve/delta", stats.delta_seconds}};
  uint64_t t = solve_start_ns;
  for (const auto& [name, seconds] : phases) {
    if (seconds <= 0.0) continue;
    const uint64_t end = t + static_cast<uint64_t>(seconds * 1e9);
    trace->RecordComplete(name, parent, t, end);
    t = end;
  }
}

}  // namespace internal

/// The threshold phase over a solution: labels + centers at O(n) (the
/// solution's precomputed density order makes it sort-free). For an
/// interrupted solution every label is kUnassigned.
inline Labeling LabelSolution(const DpcSolution& solution,
                              const ThresholdSpec& spec) {
  Labeling out;
  if (solution.interrupted()) {
    out.label.assign(solution.rho.size(), kUnassigned);
    return out;
  }
  if (solution.density_order.size() == solution.rho.size()) {
    internal::LabelWithOrder(solution.rho, solution.delta, solution.dependency,
                             solution.density_order, spec, &out.label,
                             &out.centers);
  } else {
    internal::LabelWithOrder(solution.rho, solution.delta, solution.dependency,
                             DensityOrder(solution.rho), spec, &out.label,
                             &out.centers);
  }
  return out;
}

/// A full DpcResult assembled from a solution and a threshold — the
/// bridge from the two-phase API back to the legacy result shape. Label
/// time is measured into stats.label_seconds / total_seconds.
inline DpcResult FinalizeSolution(const DpcSolution& solution,
                                  const ThresholdSpec& spec) {
  DpcResult result;
  result.rho = solution.rho;
  result.delta = solution.delta;
  result.dependency = solution.dependency;
  result.stats = solution.stats;
  internal::WallTimer timer;
  Labeling labeling = LabelSolution(solution, spec);
  result.label = std::move(labeling.label);
  result.centers = std::move(labeling.centers);
  if (!solution.interrupted()) {
    result.stats.label_seconds = timer.Seconds();
    result.stats.total_seconds += result.stats.label_seconds;
  }
  return result;
}

/// (Re)derives centers and labels from rho/delta/dependency — the cheap
/// final phase, shared by all algorithms and by decision-graph
/// re-thresholding. Requires rho/delta/dependency to be filled.
inline void FinalizeClusters(const DpcParams& params, DpcResult* result) {
  internal::LabelWithOrder(result->rho, result->delta, result->dependency,
                           DensityOrder(result->rho), params.threshold(),
                           &result->label, &result->centers);
}

/// The context algorithms actually loop with: an unspecified thread
/// count means all hardware threads. Shares the caller's pool and stop
/// state; idempotent.
inline ExecutionContext ResolveContext(const ExecutionContext& ctx) {
  return ctx.num_threads() > 0 ? ctx : ctx.WithThreads(HardwareThreads());
}

class DpcAlgorithm {
 public:
  virtual ~DpcAlgorithm() = default;
  virtual std::string_view name() const = 0;

  /// The compute phase: produces this algorithm's DpcSolution (rho /
  /// delta / dependency + metadata). The ExecutionContext carries the
  /// execution policy (thread pool, parallelism degree,
  /// deadline/cancellation). Callers that already hold the
  /// input's content fingerprint (the serving layer's dataset registry)
  /// pass it to skip the O(n·dim) re-hash; 0 means "compute it here".
  DpcSolution Solve(const PointSet& points, const ComputeParams& compute,
                    const ExecutionContext& ctx,
                    uint64_t points_fingerprint = 0) {
    obs::Trace* const trace = ctx.trace();
    const uint64_t solve_start_ns = trace != nullptr ? obs::Trace::NowNs() : 0;
    const ExecutionContext resolved = ResolveContext(ctx);
    DpcSolution solution = SolveImpl(points, compute, resolved);
    const uint64_t impl_end_ns = trace != nullptr ? obs::Trace::NowNs() : 0;
    solution.algorithm = std::string(name());
    solution.compute = compute;
    solution.points_fingerprint = points_fingerprint != 0
                                      ? points_fingerprint
                                      : FingerprintPoints(points);
    solution.compute_cost_seconds = solution.stats.build_seconds +
                                    solution.stats.rho_seconds +
                                    solution.stats.delta_seconds;
    if (!solution.interrupted()) {
      solution.density_order = DensityOrder(solution.rho, resolved);
    }
    if (trace != nullptr) {
      internal::RecordSolvePhaseSpans(trace, ctx.span_parent(), solve_start_ns,
                                      solution.stats);
      // The metadata stamping above (fingerprint hash when not provided,
      // density-order sort) is real wall time too; spanning it keeps the
      // children of a "solve" span summing to its wall.
      trace->RecordComplete("solve/stamp", ctx.span_parent(), impl_end_ns,
                            obs::Trace::NowNs());
    }
    return solution;
  }

  /// Legacy one-shot entry point (API v2 signature): the compute phase
  /// under params.compute() followed by the threshold phase under
  /// params.threshold(). Goes straight to SolveImpl: the solution is
  /// finalized and discarded here, so the artifact metadata Solve stamps
  /// (the O(n·dim) fingerprint hash, the density-order precompute) would
  /// be pure overhead — FinalizeSolution's fallback sorts inside its own
  /// timer, exactly like the pre-split label phase did.
  DpcResult Run(const PointSet& points, const DpcParams& params,
                const ExecutionContext& ctx) {
    const DpcSolution solution =
        SolveImpl(points, params.compute(), ResolveContext(ctx));
    return FinalizeSolution(solution, params.threshold());
  }
  /// Two-arg form: a default-context shim (all hardware threads on the
  /// shared process-wide ThreadPool, reused across calls).
  DpcResult Run(const PointSet& points, const DpcParams& params) {
    return Run(points, params, ExecutionContext());
  }

 protected:
  /// Algorithm body: fill rho/delta/dependency and the phase stats. The
  /// context arrives resolved (threads >= 1); Solve stamps the metadata
  /// (name, fingerprint, compute params, cost, density order) afterward.
  virtual DpcSolution SolveImpl(const PointSet& points,
                                const ComputeParams& compute,
                                const ExecutionContext& ctx) = 0;
};

}  // namespace dpc

#endif  // DPC_CORE_DPC_H_
