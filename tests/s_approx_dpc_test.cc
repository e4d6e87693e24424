// Metamorphic properties of S-Approx-DPC's epsilon knob on planted
// Gaussians:
//
//   * centers match Ex-DPC's exactly at every epsilon (the §5 design:
//     peak deltas only grow under candidate subsampling, and the usual
//     delta_min >> d_cut margin absorbs the growth);
//   * label agreement with Ex-DPC degrades monotonically as epsilon
//     sweeps {0.01, 0.2, 1.0} — the candidate samples are NESTED, so a
//     larger epsilon can only lose dependency information;
//   * epsilon = 0.01 keeps ~96% of candidates and must agree >= 0.99;
//   * epsilon -> 0 keeps everyone and collapses to Approx-DPC exactly;
//   * rho (the §4.2 joint range count) equals Ex-DPC's bit for bit at
//     dim 2 and dim 7.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/approx_dpc.h"
#include "core/ex_dpc.h"
#include "core/s_approx_dpc.h"
#include "data/generators.h"
#include "data/real_like.h"
#include "eval/rand_index.h"
#include "tests/test_util.h"

int main() {
  // Dense enough that grid cells hold many points (cell side
  // d_cut/sqrt(2) ~ 3500 on the 1e5 domain) — with near-empty cells
  // every point is its own peak and the epsilon knob would have nothing
  // to subsample.
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 20000;
  gen.num_clusters = 6;
  gen.overlap = 0.03;
  gen.noise_rate = 0.08;
  gen.seed = 7;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  dpc::DpcParams params;
  params.d_cut = 5000.0;
  params.rho_min = 5.0;
  params.delta_min = 20000.0;
  const dpc::ExecutionContext two_threads(2);

  dpc::ExDpc exact;
  const dpc::DpcResult ground = exact.Run(points, params, two_threads);
  CHECK(ground.num_clusters() >= 2);

  std::vector<double> rand_index;
  for (const double eps : {0.01, 0.2, 1.0}) {
    dpc::DpcParams p = params;
    p.epsilon = eps;
    dpc::SApproxDpc algo;
    const dpc::DpcResult r = algo.Run(points, p, two_threads);
    CHECK(r.rho == ground.rho);  // joint range count == per-point counts
    CHECK(r.centers == ground.centers);  // exact centers at every epsilon
    const double ri = dpc::eval::RandIndex(r.label, ground.label);
    std::printf("eps=%.2f: Rand index vs Ex-DPC = %.6f\n", eps, ri);
    rand_index.push_back(ri);
  }
  CHECK(rand_index[0] >= 0.99);
  CHECK(rand_index[0] >= rand_index[1]);  // nested samples: accuracy only
  CHECK(rand_index[1] >= rand_index[2]);  // degrades as epsilon grows
  CHECK(rand_index[2] < 1.0);  // ... and the knob actually bites here

  // epsilon -> 0 keeps every candidate: bit-identical to Approx-DPC.
  {
    dpc::DpcParams p = params;
    p.epsilon = 1e-12;
    dpc::SApproxDpc s_approx;
    dpc::ApproxDpc approx;
    const dpc::DpcResult a = s_approx.Run(points, p, two_threads);
    const dpc::DpcResult b = approx.Run(points, p, two_threads);
    CHECK(a.label == b.label);
    CHECK(a.dependency == b.dependency);
    CHECK(a.centers == b.centers);
  }

  // The same bitwise rho agreement at dim 7 (the Household stand-in),
  // where the joint traversal's per-cell bounding boxes are widest.
  {
    const dpc::data::RealDatasetSpec& spec =
        dpc::data::RealDatasetSpecByName("Household");
    const dpc::PointSet high = dpc::data::MakeRealLike(spec, 4000);
    CHECK_EQ(high.dim(), 7);
    dpc::ComputeParams compute;
    compute.d_cut = spec.default_d_cut;
    compute.epsilon = 0.5;
    const dpc::ExecutionContext ctx(2);
    const dpc::DpcSolution s = dpc::SApproxDpc().Solve(high, compute, ctx);
    const dpc::DpcSolution e = dpc::ExDpc().Solve(high, compute, ctx);
    CHECK(s.rho == e.rho);
    CHECK(*std::max_element(e.rho.begin(), e.rho.end()) > 0.0);
  }

  std::printf("s_approx_dpc_test OK\n");
  return 0;
}
