// kd-tree vs brute force: range count, range report, and
// nearest-accepted-neighbor on random point sets across dimensions, and
// on a duplicated lattice where exact-distance ties break to the
// smallest id. Parallel builds at 2 and 8 threads must reproduce the
// serial tree: every query answer and the memory footprint.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "core/dpc.h"
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
