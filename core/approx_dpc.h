// Approx-DPC: the paper's grid-based approximation (§4).
//
// The domain is cut into cells of width d_cut / sqrt(dim), so any two
// points sharing a cell are within d_cut of each other. Each cell's
// densest point is its *peak*. The approximation:
//
//   * non-peak points take their cell peak as dependent point — distance
//     <= the cell diameter = d_cut < delta_min, so they can never become
//     centers and need no exact delta search;
//   * cell peaks run Ex-DPC's exact nearest-denser-neighbor query on the
//     kd-tree the solve already built for rho, so center selection is
//     EXACT — the paper's headline property: Approx-DPC returns the same
//     centers as Ex-DPC. Exact-distance ties go to the smallest id, as in
//     Ex-DPC.
//
// Peaks are not necessarily a small fraction of n: measured peak ratios
// are 0.078 on the Airline stand-in (dim 3, n = 400k) and 0.54 on PAMAP2
// (dim 4, n = 50k). One shared kd-tree keeps the peak search cheap at
// either ratio, with no per-solve index beyond the tree and the grid.
//
// rho is exact. With joint_range_search (§4.2, the default) each grid
// cell runs ONE shared kd-tree traversal that counts neighbors for all
// its members at once, and sweeps each fringe leaf once for the whole
// cell: a cell of at least 8 members makes one RangeCountMultiBatch call
// per fringe leaf, vectorized across its members; smaller cells make
// one RangeCountBatch per (leaf, member) (KdTree::JointRangeCount).
// Turning it off falls back to Ex-DPC-style per-point range counts —
// identical values, one traversal per point (ablation A of
// bench_ablation). The rho pass and the peak-election + snap pass both
// iterate cells claimed in the §4.5 LPT order (ParallelForWithCosts);
// S-Approx-DPC reuses both passes (core/s_approx_dpc.h). The peaks'
// exact search walks them in the kd-tree's leaf order, like Ex-DPC's
// per-point phases.
#ifndef DPC_CORE_APPROX_DPC_H_
#define DPC_CORE_APPROX_DPC_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/dpc.h"
#include "core/ex_dpc.h"
#include "core/kernels.h"
#include "core/options.h"
#include "core/soa.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "parallel/parallel_for.h"

namespace dpc {

struct ApproxDpcOptions {
  /// §4.2 joint range search: one shared kd-tree traversal per grid cell
  /// computes rho for all its members. false = Ex-DPC-style per-point
  /// range counts. Labels are identical either way (both are exact).
  bool joint_range_search = true;

  static StatusOr<ApproxDpcOptions> FromOptions(const OptionsMap& map) {
    ApproxDpcOptions options;
    OptionsReader reader(map);
    reader.Bool("joint_range_search", &options.joint_range_search);
    if (Status s = reader.status(); !s.ok()) return s;
    return options;
  }
};

class ApproxDpc : public DpcAlgorithm {
 public:
  ApproxDpc() = default;
  explicit ApproxDpc(ApproxDpcOptions options) : options_(options) {}

  std::string_view name() const override { return "Approx-DPC"; }

  /// §4.2 joint range search: exact rho (self excluded) for every point,
  /// one shared kd-tree traversal per grid cell over the bounding box of
  /// the cell's members. Cells run under `cell_costs` (grid.CellCosts()).
  static void JointRangeRho(const PointSet& points, const KdTree& tree,
                            const UniformGrid& grid,
                            const std::vector<double>& cell_costs,
                            double d_cut, const ExecutionContext& exec,
                            std::vector<double>* rho) {
    const int dim = points.dim();
    ParallelForWithCosts(exec, cell_costs, [&](int64_t cell) {
      const std::vector<PointId>& members = grid.members(cell);
      // Per-thread scratch (pool workers persist): the members' tight
      // bounding box — lo then hi, dim doubles each — and the counts.
      // Both are fully overwritten per cell.
      static thread_local std::vector<double> box;
      static thread_local std::vector<PointId> counts;
      box.assign(static_cast<size_t>(2 * dim), 0.0);
      double* lo = box.data();
      double* hi = box.data() + dim;
      for (int d = 0; d < dim; ++d) {
        lo[d] = std::numeric_limits<double>::infinity();
        hi[d] = -std::numeric_limits<double>::infinity();
      }
      for (const PointId i : members) {
        for (int d = 0; d < dim; ++d) {
          lo[d] = std::min(lo[d], points[i][d]);
          hi[d] = std::max(hi[d], points[i][d]);
        }
      }
      tree.JointRangeCount(lo, hi, members, d_cut, &counts);
      for (size_t k = 0; k < members.size(); ++k) {
        (*rho)[static_cast<size_t>(members[k])] =
            static_cast<double>(counts[k] - 1);  // self excluded
      }
    });
  }

  /// The grid algorithms' shared dependent pass, one parallel iteration
  /// per cell under `cell_costs`: elects the cell's peak (its densest
  /// member under DenserThan) into the returned peaks[cell] and snaps
  /// every other member to it. Snap distances stream from a cell-ordered
  /// SoA view — each cell's members are one contiguous
  /// SquaredDistanceBatch, and sqrt of a bit-identical square is
  /// bit-identical to the scalar Distance. Every slot is written by
  /// exactly one cell, so the output is thread-count independent. Peaks'
  /// own delta/dependency slots are left untouched. If the context
  /// stops mid-pass, unvisited cells keep peak -1.
  static std::vector<PointId> ElectPeaksAndSnap(
      const PointSet& points, const UniformGrid& grid,
      const std::vector<double>& cell_costs, const std::vector<double>& rho,
      const ExecutionContext& exec, std::vector<double>* delta,
      std::vector<PointId>* dependency) {
    const UniformGrid::Ordering ordering = grid.CellOrdering();
    PointSetSoA cell_soa;
    cell_soa.Assign(points, ordering.order.data(), points.size(),
                    /*store_ids=*/false);
    std::vector<PointId> peaks(static_cast<size_t>(grid.num_cells()),
                               PointId{-1});
    ParallelForWithCosts(exec, cell_costs, [&](int64_t cell) {
      const std::vector<PointId>& members = grid.members(cell);
      PointId peak = members.front();
      for (const PointId i : members) {
        if (DenserThan(rho[static_cast<size_t>(i)], i,
                       rho[static_cast<size_t>(peak)], peak)) {
          peak = i;
        }
      }
      peaks[static_cast<size_t>(cell)] = peak;
      if (members.size() == 1) return;
      static thread_local std::vector<double> snap_sq;
      snap_sq.resize(members.size());
      kernels::SquaredDistanceBatch(
          cell_soa, ordering.cell_begin[static_cast<size_t>(cell)],
          static_cast<PointId>(members.size()), points[peak], snap_sq.data());
      for (size_t k = 0; k < members.size(); ++k) {
        const PointId i = members[k];
        if (i == peak) continue;
        (*dependency)[static_cast<size_t>(i)] = peak;
        (*delta)[static_cast<size_t>(i)] = std::sqrt(snap_sq[k]);
      }
    });
    return peaks;
  }

  /// Reference implementation of the paper's density-ordered subset
  /// scheme for the peaks' exact dependent search — no longer on the
  /// solve path, which runs ExDpc::ComputeExactDeltas on the solve's own
  /// kd-tree instead. Kept for bench_ablation's ablation C and as a
  /// second exact oracle.
  ///
  /// The Equation (2) analog of our cost model for the subset search:
  /// total tree build shrinks with s (s trees of n/s points cost
  /// n*log2(n/s) together) while expected query work grows linearly in s
  /// (a peak of uniform rank visits ~s/2 subsets). Balancing d/ds of the
  /// two terms gives s* ~ 2*sqrt(n)/log2(n).
  static int SolveNumSubsets(PointId n, int dim) {
    (void)dim;  // the log-tree costs cancel the dimension factor
    if (n < 2) return 1;
    const double nd = static_cast<double>(n);
    const int s =
        static_cast<int>(std::lround(2.0 * std::sqrt(nd) / std::log2(nd)));
    return std::clamp<int>(s, 1, static_cast<int>(std::min<PointId>(n, 256)));
  }

  /// The paper's dependent-point strategy for cell peaks (reference only,
  /// see SolveNumSubsets): points are sorted into `num_subsets`
  /// density-ordered subsets, a kd-tree is bulk-loaded per subset, and
  /// each peak queries subsets densest-first — denser peaks stop after
  /// fewer subsets. Every subset that wholly precedes the peak's own
  /// outranks it, so the query degenerates to a plain nearest-neighbor
  /// there; only the peak's own subset needs the denser-than predicate.
  /// delta is exactly the nearest-denser distance (same candidate set as
  /// a global predicate search); on exact-distance ties the dependency
  /// is the densest candidate, where ExDpc::ExactDeltaFor takes the
  /// smallest id. Peaks are claimed in LPT order of density rank —
  /// denser peaks visit fewer subsets, which rank models directly.
  static void ComputePeakDeltasBySubsets(
      const PointSet& points, const std::vector<double>& rho,
      const std::vector<PointId>& peaks, int num_subsets,
      const ExecutionContext& exec, std::vector<double>* delta,
      std::vector<PointId>* dependency) {
    const PointId n = points.size();
    const int dim = points.dim();
    if (n == 0 || peaks.empty()) return;
    const std::vector<PointId> order = DensityOrder(rho);
    std::vector<PointId> rank(static_cast<size_t>(n));
    for (PointId pos = 0; pos < n; ++pos) {
      rank[static_cast<size_t>(order[static_cast<size_t>(pos)])] = pos;
    }
    const int s = static_cast<int>(
        std::clamp<PointId>(num_subsets, 1, n));
    const PointId block = (n + s - 1) / s;

    std::vector<PointSet> subsets(static_cast<size_t>(s), PointSet(dim));
    for (int b = 0; b < s; ++b) {
      const PointId begin = static_cast<PointId>(b) * block;
      const PointId end = std::min<PointId>(begin + block, n);
      subsets[static_cast<size_t>(b)].Reserve(end - begin);
      for (PointId pos = begin; pos < end; ++pos) {
        subsets[static_cast<size_t>(b)].Add(
            points[order[static_cast<size_t>(pos)]]);
      }
    }
    std::vector<KdTree> trees(static_cast<size_t>(s));
    std::vector<double> build_costs(static_cast<size_t>(s));
    for (int b = 0; b < s; ++b) {
      build_costs[static_cast<size_t>(b)] =
          static_cast<double>(subsets[static_cast<size_t>(b)].size());
    }
    ParallelForWithCosts(exec, build_costs, [&](int64_t b) {
      trees[static_cast<size_t>(b)].Build(subsets[static_cast<size_t>(b)]);
    });

    std::vector<double> peak_costs(peaks.size());
    for (size_t k = 0; k < peaks.size(); ++k) {
      peak_costs[k] =
          static_cast<double>(rank[static_cast<size_t>(peaks[k])] + 1);
    }
    ParallelForWithCosts(exec, peak_costs, [&](int64_t k) {
      const PointId p = peaks[static_cast<size_t>(k)];
      const PointId rank_p = rank[static_cast<size_t>(p)];
      const int last = static_cast<int>(rank_p / block);
      double best = std::numeric_limits<double>::infinity();
      PointId best_id = -1;
      // The running best threads through as each search's initial bound,
      // so subsets that cannot beat it prune away at their root.
      for (int b = 0; b <= last; ++b) {
        const PointId base = static_cast<PointId>(b) * block;
        double dist = std::numeric_limits<double>::infinity();
        PointId local;
        if (b < last) {
          // Every point in this subset outranks p: plain NN on the
          // predicate-free batched path.
          local = trees[static_cast<size_t>(b)].NearestWithin(points[p], &dist,
                                                              best);
        } else {
          // A subset-local id lid sits at density-order position
          // base + lid, so its rank is base + lid by construction.
          local = trees[static_cast<size_t>(b)].NearestAccepted(
              points[p],
              [base, rank_p](PointId lid) { return base + lid < rank_p; },
              &dist, best);
        }
        if (local >= 0 && dist < best) {
          best = dist;
          best_id = order[static_cast<size_t>(base + local)];
        }
      }
      (*delta)[static_cast<size_t>(p)] = best;
      (*dependency)[static_cast<size_t>(p)] = best_id;
    });
  }

 protected:
  DpcSolution SolveImpl(const PointSet& points, const ComputeParams& compute,
                        const ExecutionContext& ctx) override {
    DpcSolution result;
    const PointId n = points.size();
    const int dim = points.dim();
    result.rho.assign(static_cast<size_t>(n), 0.0);
    result.delta.assign(static_cast<size_t>(n),
                        std::numeric_limits<double>::infinity());
    result.dependency.assign(static_cast<size_t>(n), PointId{-1});

    internal::WallTimer total;
    internal::WallTimer phase;
    KdTree tree;
    tree.Build(points, &ctx);

    // Grid with cell side d_cut/sqrt(dim), bounding the cell diameter by
    // d_cut (index/grid.h — shared with S-Approx-DPC); its per-cell
    // population doubles as the §4.5 scheduling cost model.
    const UniformGrid grid(
        points, compute.d_cut / std::sqrt(static_cast<double>(dim)), &ctx);
    const std::vector<double> cell_costs = grid.CellCosts();
    result.stats.build_seconds = phase.Lap();
    result.stats.index_memory_bytes = tree.MemoryBytes() + grid.MemoryBytes();

    // rho: exact range counts, cell by cell.
    if (options_.joint_range_search) {
      JointRangeRho(points, tree, grid, cell_costs, compute.d_cut, ctx,
                    &result.rho);
    } else {
      ParallelForWithCosts(ctx, cell_costs, [&](int64_t cell) {
        for (const PointId i : grid.members(cell)) {
          result.rho[static_cast<size_t>(i)] = static_cast<double>(
              tree.RangeCount(points[i], compute.d_cut) - 1);
        }
      });
    }
    result.stats.rho_seconds = phase.Lap();
    if (internal::Interrupted(ctx, &result)) {
      result.stats.total_seconds = total.Seconds();
      return result;
    }

    // delta: non-peaks snap to their cell peak; the peaks run Ex-DPC's
    // exact nearest-denser search on the tree built above (skipped if the
    // snap pass stopped early and left peaks unelected).
    const std::vector<PointId> peaks =
        ElectPeaksAndSnap(points, grid, cell_costs, result.rho, ctx,
                          &result.delta, &result.dependency);
    if (!ctx.ShouldStop()) {
      // The peaks in the tree's leaf order, so consecutive searches start
      // from neighboring leaves: one pass over the order with a flag per
      // point.
      std::vector<uint8_t> is_peak(static_cast<size_t>(n), 0);
      for (const PointId p : peaks) is_peak[static_cast<size_t>(p)] = 1;
      std::vector<PointId> leaf_peaks;
      leaf_peaks.reserve(peaks.size());
      for (const PointId i : tree.LeafOrder()) {
        if (is_peak[static_cast<size_t>(i)] != 0) leaf_peaks.push_back(i);
      }
      ExDpc::ComputeExactDeltas(points, tree, result.rho, ctx, &result.delta,
                                &result.dependency, &leaf_peaks);
    }
    result.stats.delta_seconds = phase.Lap();
    internal::Interrupted(ctx, &result);
    result.stats.total_seconds = total.Seconds();
    return result;
  }

 private:
  ApproxDpcOptions options_;
};

}  // namespace dpc

#endif  // DPC_CORE_APPROX_DPC_H_
