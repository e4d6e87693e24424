// Ex-DPC: the paper's exact kd-tree algorithm (§3).
//
//   rho   — exact range count on the kd-tree (self excluded).
//   delta — exact nearest-denser-neighbor search: a kd-tree NN query that
//           only accepts candidates ranking denser under DenserThan().
//           The globally densest point gets delta = +inf.
//
// Labeling is NOT part of the algorithm: SolveImpl produces the
// DpcSolution and any ThresholdSpec is applied downstream
// (FinalizeSolution / the Run shim).
//
// Both per-point phases are embarrassingly parallel over the immutable
// tree, and both walk the points in the tree's leaf order
// (KdTree::LeafOrder) at every thread count: consecutive queries start
// from neighboring leaves, so the nodes and leaf runs they touch are
// still in cache. Ex-DPC builds no grid and takes no options. Threads
// split that order by claiming grain-sized runs from a shared counter
// (ParallelFor). Each point's slot is written exactly once, so results
// are thread-count independent.
#ifndef DPC_CORE_EX_DPC_H_
#define DPC_CORE_EX_DPC_H_

#include <limits>
#include <vector>

#include "core/dpc.h"
#include "index/kdtree.h"
#include "parallel/parallel_for.h"

namespace dpc {

class ExDpc : public DpcAlgorithm {
 public:
  std::string_view name() const override { return "Ex-DPC"; }

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
    KdTree tree;
    tree.Build(points, &ctx);
    result.stats.build_seconds = phase.Lap();
    result.stats.index_memory_bytes = tree.MemoryBytes();

    // rho: range count minus the point itself, in leaf order.
    const std::vector<PointId>& order = tree.LeafOrder();
    ParallelFor(ctx, n, [&](PointId begin, PointId end) {
      for (PointId pos = begin; pos < end; ++pos) {
        const PointId i = order[static_cast<size_t>(pos)];
        result.rho[static_cast<size_t>(i)] =
            static_cast<double>(tree.RangeCount(points[i], compute.d_cut) - 1);
      }
    });
    result.stats.rho_seconds = phase.Lap();
    if (internal::Interrupted(ctx, &result)) {
      result.stats.total_seconds = total.Seconds();
      return result;
    }

    // delta: exact nearest denser neighbor, in leaf order.
    ComputeExactDeltas(points, tree, result.rho, ctx, &result.delta,
                       &result.dependency);
    result.stats.delta_seconds = phase.Lap();
    internal::Interrupted(ctx, &result);
    result.stats.total_seconds = total.Seconds();
    return result;
  }

 public:
  /// Exact delta/dependency for one point: the nearest neighbor ranking
  /// denser under DenserThan.
  static void ExactDeltaFor(const PointSet& points, const KdTree& tree,
                            const std::vector<double>& rho, PointId i,
                            std::vector<double>* delta,
                            std::vector<PointId>* dependency) {
    const double rho_i = rho[static_cast<size_t>(i)];
    double dist = std::numeric_limits<double>::infinity();
    const PointId nn = tree.NearestAccepted(
        points[i],
        [&rho, rho_i, i](PointId j) {
          return DenserThan(rho[static_cast<size_t>(j)], j, rho_i, i);
        },
        &dist);
    (*delta)[static_cast<size_t>(i)] = dist;
    (*dependency)[static_cast<size_t>(i)] = nn;
  }

  /// Exact delta/dependency for every point, visited in the tree's leaf
  /// order, or for the ids in `only`, visited in the order given (LSH-DDP
  /// reuses this for its refinement round, Approx-DPC for its cell peaks,
  /// which it hands over in leaf order).
  static void ComputeExactDeltas(const PointSet& points, const KdTree& tree,
                                 const std::vector<double>& rho,
                                 const ExecutionContext& exec,
                                 std::vector<double>* delta,
                                 std::vector<PointId>* dependency,
                                 const std::vector<PointId>* only = nullptr) {
    const std::vector<PointId>& ids =
        only != nullptr ? *only : tree.LeafOrder();
    ParallelFor(exec, static_cast<int64_t>(ids.size()),
                [&](int64_t begin, int64_t end) {
                  for (int64_t k = begin; k < end; ++k) {
                    ExactDeltaFor(points, tree, rho,
                                  ids[static_cast<size_t>(k)], delta,
                                  dependency);
                  }
                });
  }
};

}  // namespace dpc

#endif  // DPC_CORE_EX_DPC_H_
