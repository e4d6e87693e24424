// Approx-DPC vs Ex-DPC: identical centers (the paper's exactness claim),
// label agreement >= 0.95 Rand index, and valid structural invariants;
// the peak search against the subset-scheme oracle and, on a lattice full
// of exact-distance ties, against Ex-DPC's smallest-id tie rule.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/approx_dpc.h"
#include "core/ex_dpc.h"
#include "eval/cluster_stats.h"
#include "eval/rand_index.h"
#include "data/generators.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "tests/test_util.h"

int main() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 12000;
  gen.num_clusters = 8;
  gen.dim = 2;
  gen.overlap = 0.02;
  gen.noise_rate = 0.02;
  gen.seed = 5;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  dpc::DpcParams params;
  params.d_cut = 1500.0;
  params.rho_min = 5.0;
  params.delta_min = 8000.0;

  dpc::ExDpc exact;
  dpc::ApproxDpc approx;
  const dpc::DpcResult ex = exact.Run(points, params);
  const dpc::DpcResult ap = approx.Run(points, params);

  // rho is exact in both algorithms, so it must agree bitwise.
  CHECK(ex.rho == ap.rho);

  // Approx-DPC's headline property: the same centers as Ex-DPC.
  CHECK(ex.centers == ap.centers);
  CHECK(ex.num_clusters() >= 8);  // 8 planted blobs; overlap may split ties

  // Non-center deltas are approximate, but labels must agree strongly.
  const double rand = dpc::eval::RandIndex(ap.label, ex.label);
  std::printf("rand index approx vs exact: %.5f\n", rand);
  CHECK(rand >= 0.95);

  // Joint range search on/off (§4.2, ablation A): per-point counts must
  // reproduce the joint traversal's rho — and therefore labels — exactly.
  {
    dpc::ApproxDpcOptions off;
    off.joint_range_search = false;
    const dpc::DpcResult ap_off = dpc::ApproxDpc(off).Run(points, params);
    CHECK(ap_off.rho == ap.rho);
    CHECK(ap_off.centers == ap.centers);
    CHECK(ap_off.label == ap.label);
  }

  // The density-ordered subset scheme (Equation (2), kept as a reference
  // oracle) on the solution's own peaks: exact for any s, so every peak
  // delta matches the single-tree search bit for bit.
  {
    const dpc::ExecutionContext ctx(2);
    const dpc::UniformGrid grid(points, params.d_cut / std::sqrt(2.0));
    std::vector<double> snap_delta(ap.delta.size(), kInf);
    std::vector<dpc::PointId> snap_dep(ap.dependency.size(), -1);
    const std::vector<dpc::PointId> peaks = dpc::ApproxDpc::ElectPeaksAndSnap(
        points, grid, grid.CellCosts(), ap.rho, ctx, &snap_delta, &snap_dep);
    CHECK(!peaks.empty());
    for (const dpc::PointId p : peaks) {
      snap_delta[static_cast<size_t>(p)] = ap.delta[static_cast<size_t>(p)];
      snap_dep[static_cast<size_t>(p)] = ap.dependency[static_cast<size_t>(p)];
    }
    CHECK(snap_delta == ap.delta);  // the snap pass is the solution's
    CHECK(snap_dep == ap.dependency);
    for (const int s : {1, 3, 17}) {
      std::vector<double> delta(ap.delta.size(), kInf);
      std::vector<dpc::PointId> dep(ap.dependency.size(), -1);
      dpc::ApproxDpc::ComputePeakDeltasBySubsets(points, ap.rho, peaks, s, ctx,
                                                 &delta, &dep);
      for (const dpc::PointId p : peaks) {
        const size_t i = static_cast<size_t>(p);
        CHECK(delta[i] == ap.delta[i]);
      }
    }
  }
  CHECK(dpc::ApproxDpc::SolveNumSubsets(0, 2) == 1);
  CHECK(dpc::ApproxDpc::SolveNumSubsets(points.size(), 2) >= 1);

  // A duplicated integer lattice meets exact-distance ties everywhere:
  // every peak's dependency is Ex-DPC's nearest denser point, smallest id
  // first among equals, and the subset scheme still agrees on delta.
  {
    const dpc::PointSet lattice = dpc::test::LatticeWithDuplicates(2, 15, 3);
    dpc::ComputeParams compute;
    compute.d_cut = 15.0;
    const dpc::ExecutionContext ctx(2);
    const dpc::DpcSolution sol = approx.Solve(lattice, compute, ctx);
    dpc::KdTree tree;
    tree.Build(lattice);
    const dpc::UniformGrid grid(lattice, compute.d_cut / std::sqrt(2.0));
    std::vector<double> delta(sol.delta.size(), kInf);
    std::vector<dpc::PointId> dep(sol.dependency.size(), -1);
    const std::vector<dpc::PointId> peaks = dpc::ApproxDpc::ElectPeaksAndSnap(
        lattice, grid, grid.CellCosts(), sol.rho, ctx, &delta, &dep);
    std::vector<double> subset_delta(sol.delta.size(), kInf);
    std::vector<dpc::PointId> subset_dep(sol.dependency.size(), -1);
    dpc::ApproxDpc::ComputePeakDeltasBySubsets(lattice, sol.rho, peaks, 3, ctx,
                                               &subset_delta, &subset_dep);
    int tied = 0;
    for (const dpc::PointId p : peaks) {
      const size_t i = static_cast<size_t>(p);
      dpc::ExDpc::ExactDeltaFor(lattice, tree, sol.rho, p, &delta, &dep);
      CHECK(sol.dependency[i] == dep[i]);
      CHECK(sol.delta[i] == delta[i]);
      CHECK(subset_delta[i] == delta[i]);
      // Count peaks whose nearest denser distance is shared by another
      // denser point: the lattice must actually exercise the tie rule.
      if (dep[i] < 0) continue;
      for (dpc::PointId j = 0; j < lattice.size(); ++j) {
        const double rho_j = sol.rho[static_cast<size_t>(j)];
        if (j != dep[i] && dpc::DenserThan(rho_j, j, sol.rho[i], p) &&
            dpc::Distance(lattice[j], lattice[p], 2) == delta[i]) {
          ++tied;
          break;
        }
      }
    }
    std::printf("lattice: %zu peaks, %d with tied nearest denser points\n",
                peaks.size(), tied);
    CHECK(tied > 0);
  }

  // Structural invariants: every non-noise point reaches its cluster via
  // a denser dependency, and noise is exactly the sub-rho_min set.
  for (size_t i = 0; i < ap.label.size(); ++i) {
    if (ap.rho[i] < params.rho_min) {
      CHECK_EQ(ap.label[i], dpc::kNoise);
      continue;
    }
    CHECK(ap.label[i] >= 0);
    const dpc::PointId dep = ap.dependency[i];
    if (dep >= 0) {
      CHECK(dpc::DenserThan(ap.rho[static_cast<size_t>(dep)], dep, ap.rho[i],
                            static_cast<dpc::PointId>(i)));
    }
  }
  std::printf("approx_dpc_test OK\n");
  return 0;
}
