// LSH-DDP baseline (§6): density-peaks clustering over an LSH partition
// (after Zhang et al.'s distributed LSH-DDP, folded into one process).
//
//   * partition — random-projection LSH (index/lsh.h): a point's
//     neighborhood candidates are the union of its buckets across tables;
//   * local rho — count of candidates within d_cut. Neighbors hashed into
//     other buckets are missed, so rho is an UNDERestimate — the source of
//     LSH-DDP's quality gap in the paper's Tables 2-4;
//   * local delta — nearest denser candidate;
//   * refinement — points whose buckets contain no denser candidate
//     (local density maxima; a small fraction) fall back to an exact
//     global nearest-denser search on a kd-tree, mirroring the original
//     algorithm's cross-partition aggregation round.
//
// Hash directions are seeded (index/lsh.h) and all per-point phases write
// disjoint slots, so labels are bit-identical across runs and threads.
// The table/bit counts are the classic LSH quality/speed dials, exposed
// through LshDdpOptions for the paper's sensitivity experiments.
#ifndef DPC_BASELINES_LSH_DDP_H_
#define DPC_BASELINES_LSH_DDP_H_

#include <limits>
#include <vector>

#include "core/dpc.h"
#include "core/ex_dpc.h"
#include "core/kernels.h"
#include "core/options.h"
#include "index/kdtree.h"
#include "index/lsh.h"
#include "parallel/parallel_for.h"

namespace dpc {

struct LshDdpOptions {
  int num_tables = 4;  ///< hash tables; more = better recall, more work
  int num_bits = 4;    ///< projections per table (code width)
  /// Bucket width as a multiple of d_cut.
  double bucket_width_factor = 4.0;

  static StatusOr<LshDdpOptions> FromOptions(const OptionsMap& map) {
    LshDdpOptions options;
    OptionsReader reader(map);
    reader.Int("num_tables", &options.num_tables);
    reader.Int("num_bits", &options.num_bits);
    reader.Double("bucket_width_factor", &options.bucket_width_factor);
    if (Status s = reader.status(); !s.ok()) return s;
    if (options.num_tables < 1 || options.num_bits < 1) {
      return Status::InvalidArgument("num_tables and num_bits must be >= 1");
    }
    if (!(options.bucket_width_factor > 0.0)) {
      return Status::InvalidArgument("bucket_width_factor must be positive");
    }
    return options;
  }
};

class LshDdp : public DpcAlgorithm {
 public:
  LshDdp() = default;
  explicit LshDdp(LshDdpOptions options) : options_(options) {}

  std::string_view name() const override { return "LSH-DDP"; }

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
    LshParams lsh_params;
    lsh_params.num_tables = options_.num_tables;
    lsh_params.num_projections = options_.num_bits;
    lsh_params.bucket_width = options_.bucket_width_factor * compute.d_cut;
    const LshPartitioner lsh(points, lsh_params);
    KdTree tree(points);  // refinement index for local density maxima
    result.stats.build_seconds = phase.Lap();
    result.stats.index_memory_bytes = lsh.MemoryBytes() + tree.MemoryBytes();

    // Local rho over each point's bucket union. Duplicates across tables
    // are skipped with a query-id-stamped scratch array — cheaper than
    // materializing and sorting the union per point. The O(n) scratch is
    // paid once per chunk callback, so this loop uses
    // ParallelForStaticChunks (exactly one callback per thread chunk) and
    // polls the stop state itself instead of relying on ParallelFor's
    // sub-slice polling.
    // Bucket members are scattered ids, so the batch primitive here is
    // the row-major gather kernel: dedup the union into a scratch id
    // array, then one SquaredDistanceGather + count sweep per point.
    const double r_sq = compute.d_cut * compute.d_cut;
    ParallelForStaticChunks(ctx, n, [&](PointId begin, PointId end) {
      std::vector<PointId> last_query(static_cast<size_t>(n), PointId{-1});
      std::vector<PointId> cand;
      std::vector<double> d_sq;
      int64_t until_poll = internal::kStopCheckStride;
      for (PointId i = begin; i < end; ++i) {
        if (--until_poll <= 0) {
          if (ctx.ShouldStop()) return;
          until_poll = internal::kStopCheckStride;
        }
        cand.clear();
        for (int t = 0; t < lsh.num_tables(); ++t) {
          for (const PointId j : lsh.Bucket(t, i)) {
            if (j == i || last_query[static_cast<size_t>(j)] == i) continue;
            last_query[static_cast<size_t>(j)] = i;
            cand.push_back(j);
          }
        }
        const PointId len = static_cast<PointId>(cand.size());
        d_sq.resize(cand.size());
        kernels::SquaredDistanceGather(points, cand.data(), len, points[i],
                                       d_sq.data());
        PointId count = 0;
        for (PointId k = 0; k < len; ++k) {
          if (d_sq[static_cast<size_t>(k)] <= r_sq) ++count;
        }
        result.rho[static_cast<size_t>(i)] = static_cast<double>(count);
      }
    });
    result.stats.rho_seconds = phase.Lap();
    if (internal::Interrupted(ctx, &result)) {
      result.stats.total_seconds = total.Seconds();
      return result;
    }

    // Local delta; collect local maxima for the exact refinement round.
    std::vector<uint8_t> needs_refine(static_cast<size_t>(n), 0);
    ParallelFor(ctx, n, [&](PointId begin, PointId end) {
      std::vector<PointId> cand;
      std::vector<double> d_sq;
      for (PointId i = begin; i < end; ++i) {
        const double rho_i = result.rho[static_cast<size_t>(i)];
        // min() is duplicate-tolerant, so no dedup pass is needed here;
        // gather the denser candidates in table/bucket order and scan
        // with strict '<' — the same winner as the former fused loop.
        cand.clear();
        for (int t = 0; t < lsh.num_tables(); ++t) {
          for (const PointId j : lsh.Bucket(t, i)) {
            if (DenserThan(result.rho[static_cast<size_t>(j)], j, rho_i, i)) {
              cand.push_back(j);
            }
          }
        }
        const PointId len = static_cast<PointId>(cand.size());
        d_sq.resize(cand.size());
        kernels::SquaredDistanceGather(points, cand.data(), len, points[i],
                                       d_sq.data());
        double best_sq = std::numeric_limits<double>::infinity();
        PointId best = -1;
        for (PointId k = 0; k < len; ++k) {
          if (d_sq[static_cast<size_t>(k)] < best_sq) {
            best_sq = d_sq[static_cast<size_t>(k)];
            best = cand[static_cast<size_t>(k)];
          }
        }
        if (best >= 0) {
          result.delta[static_cast<size_t>(i)] = std::sqrt(best_sq);
          result.dependency[static_cast<size_t>(i)] = best;
        } else {
          needs_refine[static_cast<size_t>(i)] = 1;
        }
      }
    });
    std::vector<PointId> refine;
    for (PointId i = 0; i < n; ++i) {
      if (needs_refine[static_cast<size_t>(i)] != 0) refine.push_back(i);
    }
    ExDpc::ComputeExactDeltas(points, tree, result.rho, ctx, &result.delta,
                              &result.dependency, &refine);
    result.stats.delta_seconds = phase.Lap();
    internal::Interrupted(ctx, &result);
    result.stats.total_seconds = total.Seconds();
    return result;
  }

 private:
  LshDdpOptions options_;
};

}  // namespace dpc

#endif  // DPC_BASELINES_LSH_DDP_H_
