// kd-tree vs brute force: range count, range report, and
// nearest-accepted-neighbor on random point sets across dimensions, and
// on a duplicated lattice where exact-distance ties break to the
// smallest id. The §4.2 joint range count must equal per-point range
// counts on both of its leaf paths (per-query and multi-query). Parallel
// builds at 2 and 8 threads must reproduce the serial tree: every query
// answer and the memory footprint.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "core/dpc.h"
#include "core/kernels.h"
#include "core/rng.h"
#include "index/kdtree.h"
#include "parallel/execution_context.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

namespace {

dpc::PointSet RandomPoints(int dim, dpc::PointId n, uint64_t seed) {
  dpc::Rng rng(seed);
  dpc::PointSet points(dim);
  points.Reserve(n);
  std::vector<double> p(static_cast<size_t>(dim));
  for (dpc::PointId i = 0; i < n; ++i) {
    for (int d = 0; d < dim; ++d) p[static_cast<size_t>(d)] = rng.Uniform(0, 1000);
    points.Add(p.data());
  }
  return points;
}

/// Range count, range report and nearest-accepted-neighbor against brute
/// force from 50 random query points. Returns how many nearest-neighbor
/// queries had several accepted points at the winning distance.
int CheckAgainstBruteForce(const dpc::PointSet& points, uint64_t seed) {
  const dpc::PointId n = points.size();
  const int dim = points.dim();
  dpc::KdTree tree;
  tree.Build(points);
  CHECK(tree.MemoryBytes() > 0);

  int tied_queries = 0;
  dpc::Rng rng(seed);
  for (int trial = 0; trial < 50; ++trial) {
    const dpc::PointId q = static_cast<dpc::PointId>(rng.NextBelow(n));
    const double radius = rng.Uniform(10.0, 400.0);
    const double r_sq = radius * radius;

    dpc::PointId brute_count = 0;
    std::vector<dpc::PointId> brute_ids;
    for (dpc::PointId j = 0; j < n; ++j) {
      if (dpc::SquaredDistance(points[q], points[j], dim) <= r_sq) {
        ++brute_count;
        brute_ids.push_back(j);
      }
    }

    CHECK_EQ(tree.RangeCount(points[q], radius), brute_count);

    std::vector<dpc::PointId> tree_ids;
    tree.RangeReport(points[q], radius, &tree_ids);
    std::sort(tree_ids.begin(), tree_ids.end());
    CHECK(tree_ids == brute_ids);

    // Nearest neighbor among even-id points, excluding the query itself.
    // The ascending-id strict-< scan keeps the smallest id among exact
    // ties; NearestAccepted promises the same winner.
    const auto accept = [q](dpc::PointId j) { return j % 2 == 0 && j != q; };
    double tree_dist = 0.0;
    const dpc::PointId tree_nn = tree.NearestAccepted(points[q], accept, &tree_dist);
    dpc::PointId brute_nn = -1;
    double brute_sq = std::numeric_limits<double>::infinity();
    int ties = 0;
    for (dpc::PointId j = 0; j < n; ++j) {
      if (!accept(j)) continue;
      const double d_sq = dpc::SquaredDistance(points[q], points[j], dim);
      if (d_sq < brute_sq) {
        brute_sq = d_sq;
        brute_nn = j;
        ties = 0;
      } else if (d_sq == brute_sq) {
        ++ties;
      }
    }
    if (ties > 0) ++tied_queries;
    CHECK_EQ(tree_nn, brute_nn);
    CHECK_NEAR(tree_dist * tree_dist, brute_sq, 1e-6);
  }

  // A predicate nothing satisfies must report "no neighbor".
  double dist = 0.0;
  const dpc::PointId none =
      tree.NearestAccepted(points[0], [](dpc::PointId) { return false; }, &dist);
  CHECK_EQ(none, -1);
  CHECK(std::isinf(dist));
  return tied_queries;
}

/// Builds `points` serially and on a pool at 2 and 8 threads, and checks
/// the parallel trees answer like the serial one from 200 seeded queries:
/// RangeCount, RangeReport in traversal order (which follows the node
/// layout and perm order, so it differs if the trees do), JointRangeCount
/// over a query cell's bounding box, NearestAccepted (id and distance),
/// plus equal MemoryBytes — also for a tree object reused from a larger
/// build.
void CheckParallelBuildMatchesSerial(const dpc::PointSet& points,
                                     double radius, uint64_t seed) {
  const dpc::PointId n = points.size();
  const int dim = points.dim();
  CHECK(n >= 2 * dpc::internal::kMinParallelIterations);
  dpc::KdTree serial;
  serial.Build(points);
  const dpc::PointSet larger = RandomPoints(dim, 2 * n, seed + 1);
  auto pool = std::make_shared<dpc::ThreadPool>(8);
  for (const int threads : {2, 8}) {
    const dpc::ExecutionContext ctx(threads, dpc::ScheduleStrategy::kCostGuided,
                                    pool);
    dpc::KdTree parallel;
    parallel.Build(points, &ctx);
    CHECK_EQ(parallel.size(), n);
    CHECK_EQ(parallel.MemoryBytes(), serial.MemoryBytes());
    dpc::KdTree reused;
    reused.Build(larger, &ctx);
    reused.Build(points, &ctx);
    CHECK_EQ(reused.MemoryBytes(), serial.MemoryBytes());

    dpc::Rng rng(seed);
    for (int trial = 0; trial < 200; ++trial) {
      const dpc::PointId q = static_cast<dpc::PointId>(rng.NextBelow(n));
      const double r = radius * rng.Uniform(0.2, 2.0);
      CHECK_EQ(parallel.RangeCount(points[q], r), serial.RangeCount(points[q], r));
      std::vector<dpc::PointId> serial_ids, parallel_ids;
      serial.RangeReport(points[q], r, &serial_ids);
      parallel.RangeReport(points[q], r, &parallel_ids);
      CHECK(parallel_ids == serial_ids);

      // The ball's members act as one joint query cell.
      std::vector<double> lo(static_cast<size_t>(dim),
                             std::numeric_limits<double>::infinity());
      std::vector<double> hi(static_cast<size_t>(dim),
                             -std::numeric_limits<double>::infinity());
      for (const dpc::PointId i : serial_ids) {
        for (int d = 0; d < dim; ++d) {
          lo[static_cast<size_t>(d)] = std::min(lo[static_cast<size_t>(d)], points[i][d]);
          hi[static_cast<size_t>(d)] = std::max(hi[static_cast<size_t>(d)], points[i][d]);
        }
      }
      std::vector<dpc::PointId> serial_counts, parallel_counts;
      serial.JointRangeCount(lo.data(), hi.data(), serial_ids, r, &serial_counts);
      parallel.JointRangeCount(lo.data(), hi.data(), serial_ids, r,
                               &parallel_counts);
      CHECK(parallel_counts == serial_counts);

      const auto accept = [q](dpc::PointId j) { return j % 3 != 0 && j != q; };
      double serial_dist = 0.0, parallel_dist = 0.0;
      const dpc::PointId serial_nn =
          serial.NearestAccepted(points[q], accept, &serial_dist);
      CHECK_EQ(parallel.NearestAccepted(points[q], accept, &parallel_dist),
               serial_nn);
      CHECK_EQ(parallel_dist, serial_dist);
    }
  }
}

/// The queries' bounding box: lo then hi, dim doubles each.
std::vector<double> BoundingBox(const dpc::PointSet& points,
                                const std::vector<dpc::PointId>& ids) {
  const int dim = points.dim();
  std::vector<double> box(static_cast<size_t>(2 * dim));
  for (int d = 0; d < dim; ++d) {
    box[static_cast<size_t>(d)] = std::numeric_limits<double>::infinity();
    box[static_cast<size_t>(dim + d)] = -std::numeric_limits<double>::infinity();
  }
  for (const dpc::PointId i : ids) {
    for (int d = 0; d < dim; ++d) {
      box[static_cast<size_t>(d)] = std::min(box[static_cast<size_t>(d)], points[i][d]);
      box[static_cast<size_t>(dim + d)] =
          std::max(box[static_cast<size_t>(dim + d)], points[i][d]);
    }
  }
  return box;
}

/// JointRangeCount must equal per-point RangeCount for query sets on
/// both sides of the 8-query cutoff (7, 8, 9) and across several native
/// query blocks (64, 65, 130). Each size runs as a compact set (the
/// points nearest a seed point: subtrees inside and outside the ball
/// plus a fringe) and as a spread set of seeded ids, whose box spans
/// the whole point set so that, with r well below the spread, every
/// leaf is fringe.
void CheckJointRangeCount(const dpc::PointSet& points, double r,
                          uint64_t seed) {
  const dpc::PointId n = points.size();
  const int dim = points.dim();
  const dpc::KdTree tree(points);
  const std::vector<dpc::PointId> all = [&] {
    std::vector<dpc::PointId> ids(static_cast<size_t>(n));
    std::iota(ids.begin(), ids.end(), dpc::PointId{0});
    return ids;
  }();
  const std::vector<double> everything = BoundingBox(points, all);
  dpc::Rng rng(seed);
  for (const size_t size : {size_t{7}, size_t{8}, size_t{9}, size_t{64},
                            size_t{65}, size_t{130}}) {
    const dpc::PointId center =
        static_cast<dpc::PointId>(rng.NextBelow(static_cast<uint64_t>(n)));
    std::vector<dpc::PointId> compact = all;
    std::sort(compact.begin(), compact.end(), [&](dpc::PointId a, dpc::PointId b) {
      const double da = dpc::SquaredDistance(points[a], points[center], dim);
      const double db = dpc::SquaredDistance(points[b], points[center], dim);
      return da < db || (da == db && a < b);
    });
    compact.resize(size);
    std::vector<dpc::PointId> spread(size);
    for (dpc::PointId& id : spread) {
      id = static_cast<dpc::PointId>(rng.NextBelow(static_cast<uint64_t>(n)));
    }
    for (const std::vector<dpc::PointId>* queries : {&compact, &spread}) {
      const std::vector<double> box = queries == &spread
                                          ? everything
                                          : BoundingBox(points, *queries);
      std::vector<dpc::PointId> counts;
      tree.JointRangeCount(box.data(), box.data() + dim, *queries, r, &counts);
      CHECK_EQ(counts.size(), size);
      for (size_t k = 0; k < size; ++k) {
        CHECK_EQ(counts[k], tree.RangeCount(points[(*queries)[k]], r));
      }
    }
  }
}

}  // namespace

int main() {
  for (const int dim : {1, 2, 3, 5, 8}) {
    const uint64_t seed = 7000 + static_cast<uint64_t>(dim);
    CheckAgainstBruteForce(RandomPoints(dim, 2000, seed), 99);
  }
  // Exact-distance ties must resolve to the smallest id, and the lattice
  // must actually produce them.
  for (const int dim : {2, 3}) {
    const int side = dim == 2 ? 15 : 8;
    const dpc::PointSet lattice =
        dpc::test::LatticeWithDuplicates(dim, side, 3);
    CHECK(CheckAgainstBruteForce(lattice, 5) > 0);
  }

  // The joint search against per-point counts, in the stand-ins' dims,
  // and on the duplicate-heavy lattice, where distances tie r exactly —
  // once per kernel tier (each tier has its own query-block width).
  const std::vector<dpc::kernels::KernelTier> tiers =
      dpc::kernels::SupportedTiers();
  for (const dpc::kernels::KernelTier tier : tiers) {
    CHECK(dpc::kernels::SetActiveTier(tier));
    for (const int dim : {2, 3, 4, 7}) {
      CheckJointRangeCount(
          RandomPoints(dim, 4000, 7100 + static_cast<uint64_t>(dim)),
          60.0 + 20.0 * dim, 31);
    }
    CheckJointRangeCount(dpc::test::LatticeWithDuplicates(2, 30, 3), 20.0, 32);
    CheckJointRangeCount(dpc::test::LatticeWithDuplicates(3, 12, 2), 20.0, 33);
  }
  CHECK(dpc::kernels::SetActiveTier(tiers.back()));

  // Parallel builds above the parallel-region guard: a seeded uniform set
  // and the duplicate-heavy lattice (10800 points, every site 3 times).
  CheckParallelBuildMatchesSerial(RandomPoints(3, 20000, 8100), 60.0, 17);
  CheckParallelBuildMatchesSerial(dpc::test::LatticeWithDuplicates(2, 60, 3),
                                  25.0, 18);

  // Empty and tiny trees must not crash.
  dpc::PointSet empty(2);
  dpc::KdTree tree;
  tree.Build(empty);
  const double origin[2] = {0.0, 0.0};
  CHECK_EQ(tree.RangeCount(origin, 10.0), 0);

  std::printf("kdtree_test OK\n");
  return 0;
}
