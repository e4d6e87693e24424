// S-Approx-DPC: the sampling-based variant of Approx-DPC (paper §5),
// with the epsilon knob trading dependent-phase work for label accuracy.
//
// The skeleton is Approx-DPC's grid (cells of side d_cut/sqrt(dim), cell
// diameter <= d_cut) and its first two passes, shared code rather than a
// copy: rho is Approx-DPC's §4.2 joint range count (one kd-tree
// traversal per cell; the same integers as Ex-DPC's per-point counts),
// and one parallel pass elects each cell's peak and snaps the other
// members to it. Only cell peaks run a nearest-denser-neighbor search. The
// epsilon knob subsamples the CANDIDATE SET of that search: each cell
// contributes its peak unconditionally plus a
//     keep_rate = 1 / (1 + 4 * epsilon)
// fraction of its remaining members (stateless per-point hash, so samples
// are NESTED: a larger epsilon's candidates are a subset of a smaller
// epsilon's). Peaks then search a kd-tree over only the kept points, so
// the dependent phase shrinks roughly linearly in keep_rate.
//
// Accuracy properties, relative to Ex-DPC:
//   * epsilon -> 0 keeps every point, collapsing to Approx-DPC exactly;
//   * a peak's delta is computed over a SUBSET of points, hence is an
//     overestimate that exceeds the exact value by at most d_cut + the
//     distance to the nearest denser CELL PEAK (cell peaks are always
//     candidates);
//   * centers are never lost (delta only grows); a spurious center can
//     appear only when an exact peak delta falls within that margin below
//     delta_min — with the usual delta_min >> d_cut, centers match
//     Ex-DPC's exactly, and only dependency targets (label attachment of
//     non-center peaks) drift with epsilon.
#ifndef DPC_CORE_S_APPROX_DPC_H_
#define DPC_CORE_S_APPROX_DPC_H_

#include <cmath>
#include <limits>
#include <vector>

#include "core/approx_dpc.h"
#include "core/dpc.h"
#include "core/options.h"
#include "core/rng.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "parallel/parallel_for.h"

namespace dpc {

struct SApproxDpcOptions {
  /// Seed of the nested per-point sampling coins; fixed by default so
  /// labels are reproducible run to run.
  int64_t sample_seed = 0x5a94d9c;

  static StatusOr<SApproxDpcOptions> FromOptions(const OptionsMap& map) {
    SApproxDpcOptions options;
    OptionsReader reader(map);
    reader.Int64("sample_seed", &options.sample_seed);
    if (Status s = reader.status(); !s.ok()) return s;
    return options;
  }
};

class SApproxDpc : public DpcAlgorithm {
 public:
  SApproxDpc() = default;
  explicit SApproxDpc(SApproxDpcOptions options) : options_(options) {}

  std::string_view name() const override { return "S-Approx-DPC"; }

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
    const UniformGrid grid(
        points, compute.d_cut / std::sqrt(static_cast<double>(dim)), &ctx);
    const std::vector<double> cell_costs = grid.CellCosts();
    result.stats.build_seconds = phase.Lap();

    // rho and the peak-election + snap pass are Approx-DPC's own
    // (core/approx_dpc.h): the §4.2 joint range count, then one parallel
    // pass over cells, both claimed in LPT order.
    ApproxDpc::JointRangeRho(points, tree, grid, cell_costs, compute.d_cut,
                             ctx, &result.rho);
    result.stats.rho_seconds = phase.Lap();
    if (internal::Interrupted(ctx, &result)) {
      result.stats.total_seconds = total.Seconds();
      return result;
    }
    const std::vector<PointId> peaks =
        ApproxDpc::ElectPeaksAndSnap(points, grid, cell_costs, result.rho,
                                     ctx, &result.delta, &result.dependency);
    if (internal::Interrupted(ctx, &result)) {
      result.stats.total_seconds = total.Seconds();
      return result;
    }
    std::vector<uint8_t> is_peak(static_cast<size_t>(n), 0);
    for (const PointId p : peaks) is_peak[static_cast<size_t>(p)] = 1;

    // Epsilon-driven cell subsampling: peaks always survive; non-peak
    // members survive at keep_rate via the nested per-point hash.
    const double keep_rate = 1.0 / (1.0 + 4.0 * compute.epsilon);
    const uint64_t seed = static_cast<uint64_t>(options_.sample_seed);
    PointSet candidates(dim);
    std::vector<PointId> candidate_ids;
    candidates.Reserve(static_cast<PointId>(static_cast<double>(n) * keep_rate) +
                       static_cast<PointId>(peaks.size()) + 16);
    for (PointId i = 0; i < n; ++i) {
      if (is_peak[static_cast<size_t>(i)] != 0 ||
          HashToUnit(seed, static_cast<uint64_t>(i)) < keep_rate) {
        candidates.Add(points[i]);
        candidate_ids.push_back(i);
      }
    }
    KdTree candidate_tree;
    candidate_tree.Build(candidates, &ctx);
    result.stats.index_memory_bytes =
        tree.MemoryBytes() + grid.MemoryBytes() + candidate_tree.MemoryBytes() +
        candidates.raw().capacity() * sizeof(double) +
        candidate_ids.capacity() * sizeof(PointId);

    // Peaks: nearest denser neighbor among the sampled candidates.
    // Peaks are claimed in LPT order of cost ~ rho (denser peaks accept
    // fewer candidates, so their searches tighten the distance bound
    // later and do more work).
    std::vector<double> peak_costs(peaks.size());
    for (size_t k = 0; k < peaks.size(); ++k) {
      peak_costs[k] = result.rho[static_cast<size_t>(peaks[k])] + 1.0;
    }
    ParallelForWithCosts(ctx, peak_costs, [&](int64_t k) {
      const PointId p = peaks[static_cast<size_t>(k)];
      const double rho_p = result.rho[static_cast<size_t>(p)];
      double dist = std::numeric_limits<double>::infinity();
      const PointId nn = candidate_tree.NearestAccepted(
          points[p],
          [&](PointId cj) {
            const PointId j = candidate_ids[static_cast<size_t>(cj)];
            return DenserThan(result.rho[static_cast<size_t>(j)], j, rho_p, p);
          },
          &dist);
      result.delta[static_cast<size_t>(p)] = dist;
      result.dependency[static_cast<size_t>(p)] =
          nn >= 0 ? candidate_ids[static_cast<size_t>(nn)] : PointId{-1};
    });
    result.stats.delta_seconds = phase.Lap();
    internal::Interrupted(ctx, &result);
    result.stats.total_seconds = total.Seconds();
    return result;
  }

 private:
  SApproxDpcOptions options_;
};

}  // namespace dpc

#endif  // DPC_CORE_S_APPROX_DPC_H_
