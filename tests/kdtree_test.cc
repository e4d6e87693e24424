// kd-tree vs brute force: range count, range report, and
// nearest-accepted-neighbor on random point sets across dimensions, and
// on a duplicated lattice where exact-distance ties break to the
// smallest id.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/dpc.h"
#include "core/rng.h"
#include "index/kdtree.h"
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

  // Empty and tiny trees must not crash.
  dpc::PointSet empty(2);
  dpc::KdTree tree;
  tree.Build(empty);
  const double origin[2] = {0.0, 0.0};
  CHECK_EQ(tree.RangeCount(origin, 10.0), 0);

  std::printf("kdtree_test OK\n");
  return 0;
}
