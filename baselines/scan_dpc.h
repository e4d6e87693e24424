// Scan-family baselines of §6: the original CFSFDP formulation.
//
//   * ScanDpc ("Scan") — brute-force O(n^2) rho AND O(n^2) delta. Every
//     quantity is exact by construction, which makes it the ground truth
//     the conformance tests compare everything else against.
//   * RtreeScanDpc ("R-tree + Scan") — the rho phase runs on a bulk-loaded
//     R-tree (subquadratic range counts) but the dependent-point phase is
//     still the quadratic scan, which is why the paper's Table 6 shows it
//     fixing only half the problem.
//
// Both share the quadratic dependent pass (internal::QuadraticDeltas),
// which CFSFDP-A reuses as well. All phases parallelize over points with
// disjoint writes, so results are thread-count independent. Per-point
// work is uniform here (every point scans everything), so there is no
// cost model: threads claim grain-sized runs of points (ParallelFor).
// Neither algorithm takes options.
//
// Cancellation: with O(n) work per index, ParallelFor's 1024-index
// sub-slice polling would overshoot a deadline by up to 1024*n distance
// evaluations, so the quadratic loops poll ShouldStop INSIDE the inner
// distance scan, amortized every ~kDistanceEvalsPerPoll evaluations
// (blocked inner loops — no per-evaluation branch on the hot path).
//
// Hot path: both quadratic passes stream an identity-order SoA view
// (core/soa.h) through the batched kernels, one kDistanceEvalsPerPoll
// block at a time — the poll block doubles as the kernel batch. Counts
// come from RangeCountBatch (self-hit subtracted arithmetically: the
// query is always within d_cut of itself); the dependent pass batches
// the distances and keeps the ascending DenserThan scan on the buffer,
// so every rho and delta is bit-identical to the scalar loops.
#ifndef DPC_BASELINES_SCAN_DPC_H_
#define DPC_BASELINES_SCAN_DPC_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "core/dpc.h"
#include "core/kernels.h"
#include "core/soa.h"
#include "index/rtree.h"
#include "parallel/parallel_for.h"

namespace dpc {

namespace internal {

/// Distance evaluations between ShouldStop polls inside the quadratic
/// inner loops. Cheap enough to vanish against the distance arithmetic,
/// small enough that a cancelled quadratic run frees its pool threads
/// within microseconds instead of one whole 1024-index outer slice.
inline constexpr int64_t kDistanceEvalsPerPoll = 4096;

/// The quadratic dependent-point pass shared by the scan family: for each
/// point, scan ALL points ranking denser (DenserThan) and keep the
/// closest. The globally densest point keeps delta = +inf, dependency -1.
/// The inner scan runs in kDistanceEvalsPerPoll blocks with a stop poll
/// between blocks; a stopped call leaves the remaining slots untouched
/// (the caller discards the phase via internal::Interrupted).
///
/// `soa` must be an identity-order view of `points`. Each poll block is
/// one SquaredDistanceBatch over ALL candidates (a denser-only scan
/// would break the unit-stride streaming for ~2x fewer flops — a loss on
/// every profile), then the ascending DenserThan scan runs on the
/// buffer, preserving the scalar loop's update order and tie behavior
/// exactly.
inline void QuadraticDeltas(const PointSet& points, const PointSetSoA& soa,
                            const std::vector<double>& rho,
                            const ExecutionContext& exec,
                            std::vector<double>* delta,
                            std::vector<PointId>* dependency) {
  const PointId n = points.size();
  ParallelFor(exec, n, [&](PointId begin, PointId end) {
    std::vector<double> buf(static_cast<size_t>(
        std::min<PointId>(n, kDistanceEvalsPerPoll)));
    for (PointId i = begin; i < end; ++i) {
      const double rho_i = rho[static_cast<size_t>(i)];
      double best_sq = std::numeric_limits<double>::infinity();
      PointId best = -1;
      for (PointId j0 = 0; j0 < n; j0 += kDistanceEvalsPerPoll) {
        if (exec.ShouldStop()) return;
        const PointId j_end = std::min(j0 + kDistanceEvalsPerPoll, n);
        kernels::SquaredDistanceBatch(soa, j0, j_end - j0, points[i],
                                      buf.data());
        for (PointId j = j0; j < j_end; ++j) {
          if (!DenserThan(rho[static_cast<size_t>(j)], j, rho_i, i)) continue;
          const double d_sq = buf[static_cast<size_t>(j - j0)];
          if (d_sq < best_sq) {
            best_sq = d_sq;
            best = j;
          }
        }
      }
      (*delta)[static_cast<size_t>(i)] =
          best >= 0 ? std::sqrt(best_sq) : std::numeric_limits<double>::infinity();
      (*dependency)[static_cast<size_t>(i)] = best;
    }
  });
}

}  // namespace internal

class ScanDpc : public DpcAlgorithm {
 public:
  std::string_view name() const override { return "Scan"; }

 protected:
  DpcSolution SolveImpl(const PointSet& points, const ComputeParams& compute,
                        const ExecutionContext& ctx) override {
    DpcSolution result;
    const PointId n = points.size();
    result.rho.assign(static_cast<size_t>(n), 0.0);
    result.delta.assign(static_cast<size_t>(n),
                        std::numeric_limits<double>::infinity());
    result.dependency.assign(static_cast<size_t>(n), PointId{-1});

    internal::WallTimer total;
    internal::WallTimer phase;
    // No index — only the transposed hot-path view, charged like one.
    const PointSetSoA soa(points);
    result.stats.build_seconds = phase.Lap();
    result.stats.index_memory_bytes = soa.MemoryBytes();

    const double r_sq = compute.d_cut * compute.d_cut;
    ParallelFor(ctx, n, [&](PointId begin, PointId end) {
      for (PointId i = begin; i < end; ++i) {
        PointId count = 0;
        for (PointId j0 = 0; j0 < n; j0 += internal::kDistanceEvalsPerPoll) {
          if (ctx.ShouldStop()) return;
          const PointId j_end =
              std::min(j0 + internal::kDistanceEvalsPerPoll, n);
          count += kernels::RangeCountBatch(soa, j0, j_end - j0, points[i],
                                            r_sq);
        }
        // The batch counts the self-hit (distance 0 <= r_sq, always).
        result.rho[static_cast<size_t>(i)] = static_cast<double>(count - 1);
      }
    });
    result.stats.rho_seconds = phase.Lap();
    if (internal::Interrupted(ctx, &result)) {
      result.stats.total_seconds = total.Seconds();
      return result;
    }

    internal::QuadraticDeltas(points, soa, result.rho, ctx, &result.delta,
                              &result.dependency);
    result.stats.delta_seconds = phase.Lap();
    internal::Interrupted(ctx, &result);
    result.stats.total_seconds = total.Seconds();
    return result;
  }
};

class RtreeScanDpc : public DpcAlgorithm {
 public:
  std::string_view name() const override { return "R-tree + Scan"; }

 protected:
  DpcSolution SolveImpl(const PointSet& points, const ComputeParams& compute,
                        const ExecutionContext& ctx) override {
    DpcSolution result;
    const PointId n = points.size();
    result.rho.assign(static_cast<size_t>(n), 0.0);
    result.delta.assign(static_cast<size_t>(n),
                        std::numeric_limits<double>::infinity());
    result.dependency.assign(static_cast<size_t>(n), PointId{-1});

    internal::WallTimer total;
    internal::WallTimer phase;
    RTree tree(points);
    // Identity-order view for the quadratic dependent pass (the tree's
    // internal view is perm-ordered and private).
    const PointSetSoA soa(points);
    result.stats.build_seconds = phase.Lap();
    result.stats.index_memory_bytes = tree.MemoryBytes() + soa.MemoryBytes();

    ParallelFor(ctx, n, [&](PointId begin, PointId end) {
      for (PointId i = begin; i < end; ++i) {
        result.rho[static_cast<size_t>(i)] = static_cast<double>(
            tree.RangeCount(points[i], compute.d_cut) - 1);
      }
    });
    result.stats.rho_seconds = phase.Lap();
    if (internal::Interrupted(ctx, &result)) {
      result.stats.total_seconds = total.Seconds();
      return result;
    }

    internal::QuadraticDeltas(points, soa, result.rho, ctx, &result.delta,
                              &result.dependency);
    result.stats.delta_seconds = phase.Lap();
    internal::Interrupted(ctx, &result);
    result.stats.total_seconds = total.Seconds();
    return result;
  }
};

}  // namespace dpc

#endif  // DPC_BASELINES_SCAN_DPC_H_
