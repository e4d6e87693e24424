// The compute/threshold split (core/dpc.h): DpcParams factoring into
// ComputeParams + ThresholdSpec, the DpcSolution artifact every registry
// algorithm produces, and the invariant the serving layer's two-tier
// cache rests on — solution-then-finalize is bit-identical to the legacy
// one-shot Run across a whole (rho_min, delta_min) grid.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/decision_graph.h"
#include "core/registry.h"
#include "core/rng.h"
#include "data/generators.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

namespace {

dpc::PointSet TestPoints(dpc::PointId n = 1500) {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = n;
  gen.num_clusters = 4;
  gen.noise_rate = 0.02;
  gen.seed = 77;
  return dpc::data::GaussianBenchmark(gen);
}

void TestParamsFactoring() {
  dpc::DpcParams params;
  params.d_cut = 1000.0;
  params.rho_min = 5.0;
  params.delta_min = 4000.0;
  params.epsilon = 0.5;

  const dpc::ComputeParams compute = params.compute();
  CHECK_EQ(compute.d_cut, 1000.0);
  CHECK_EQ(compute.epsilon, 0.5);
  const dpc::ThresholdSpec threshold = params.threshold();
  CHECK_EQ(threshold.rho_min, 5.0);
  CHECK_EQ(threshold.delta_min, 4000.0);

  // Compose is the inverse of the two projections.
  const dpc::DpcParams roundtrip = dpc::ComposeParams(compute, threshold);
  CHECK_EQ(roundtrip.d_cut, params.d_cut);
  CHECK_EQ(roundtrip.rho_min, params.rho_min);
  CHECK_EQ(roundtrip.delta_min, params.delta_min);
  CHECK_EQ(roundtrip.epsilon, params.epsilon);

  // The split validators carve up exactly the legacy checks.
  CHECK(params.Validate().ok());
  CHECK(compute.Validate().ok());
  CHECK(threshold.Validate(params.d_cut).ok());
  dpc::ComputeParams bad_compute = compute;
  bad_compute.d_cut = 0.0;
  CHECK(!bad_compute.Validate().ok());
  dpc::ThresholdSpec bad_threshold = threshold;
  bad_threshold.delta_min = 500.0;  // below d_cut
  CHECK(!bad_threshold.Validate(params.d_cut).ok());
  bad_threshold.delta_min = 4000.0;
  bad_threshold.rho_min = -1.0;
  CHECK(!bad_threshold.Validate(params.d_cut).ok());
}

void TestSolutionThenFinalizeMatchesRunForAllAlgorithms() {
  const dpc::PointSet points = TestPoints();
  const double d_cut = 2500.0;

  for (const std::string& name : dpc::RegisteredAlgorithmNames()) {
    auto algo = dpc::MakeAlgorithmByName(name);
    CHECK(algo.ok());

    dpc::ComputeParams compute;
    compute.d_cut = d_cut;
    compute.epsilon = 0.5;
    const dpc::DpcSolution solution =
        algo.value()->Solve(points, compute, dpc::ExecutionContext(2));

    // Artifact metadata: identity, cost, and the precomputed order.
    CHECK(solution.algorithm == std::string(algo.value()->name()));
    CHECK_EQ(solution.points_fingerprint, dpc::FingerprintPoints(points));
    CHECK_EQ(solution.compute.d_cut, d_cut);
    CHECK_EQ(solution.size(), points.size());
    CHECK(!solution.interrupted());
    CHECK(solution.compute_cost_seconds >= 0.0);
    CHECK(solution.density_order == dpc::DensityOrder(solution.rho));

    // The acceptance invariant: across a (rho_min, delta_min) grid,
    // finalizing the ONE solution is bit-identical to a fresh legacy Run
    // with the flat params — labels, centers, rho, delta, dependency.
    for (const double rho_min : {0.0, 2.0, 8.0}) {
      for (const double delta_mult : {1.5, 3.0, 6.0}) {
        dpc::ThresholdSpec spec;
        spec.rho_min = rho_min;
        spec.delta_min = delta_mult * d_cut;
        const dpc::DpcResult from_solution =
            dpc::FinalizeSolution(solution, spec);

        auto fresh_algo = dpc::MakeAlgorithmByName(name);
        const dpc::DpcResult from_run = fresh_algo.value()->Run(
            points, dpc::ComposeParams(compute, spec),
            dpc::ExecutionContext(2));

        dpc::test::AssertSolutionsEqual(from_solution, from_run);
      }
    }

    // LabelSolution is the allocation-light sibling of FinalizeSolution.
    dpc::ThresholdSpec spec;
    spec.rho_min = 2.0;
    spec.delta_min = 3.0 * d_cut;
    const dpc::Labeling labeling = dpc::LabelSolution(solution, spec);
    const dpc::DpcResult reference = dpc::FinalizeSolution(solution, spec);
    CHECK(labeling.label == reference.label);
    CHECK(labeling.centers == reference.centers);
  }
}

void TestInterruptedSolve() {
  const dpc::PointSet points = TestPoints();
  dpc::ComputeParams compute;
  compute.d_cut = 2500.0;

  dpc::ExecutionContext cancelled(2);
  cancelled.RequestCancel();
  auto algo = dpc::MakeAlgorithmByName("ex-dpc");
  const dpc::DpcSolution solution =
      algo.value()->Solve(points, compute, cancelled);
  CHECK(solution.interrupted());
  CHECK(solution.density_order.empty());  // never built for a dead solve

  // Finalizing an interrupted solution yields the legacy interrupted
  // result shape: every label kUnassigned, no centers.
  dpc::ThresholdSpec spec;
  spec.rho_min = 2.0;
  spec.delta_min = 9000.0;
  const dpc::DpcResult result = dpc::FinalizeSolution(solution, spec);
  CHECK(result.stats.interrupted);
  CHECK_EQ(result.label.size(), static_cast<size_t>(points.size()));
  for (const int64_t label : result.label) CHECK_EQ(label, dpc::kUnassigned);
  CHECK_EQ(result.centers.size(), 0u);
}

void TestTopGammaPoints() {
  // gamma = rho * delta with the +inf peak capped just above the largest
  // finite delta: ranking is deterministic and NaN-free even for a
  // zero-density peak.
  const std::vector<double> rho = {10.0, 0.0, 5.0, 5.0};
  const std::vector<double> delta = {std::numeric_limits<double>::infinity(),
                                     std::numeric_limits<double>::infinity(),
                                     8.0, 8.0};
  const auto top = dpc::TopGammaPoints(rho, delta, 3);
  CHECK_EQ(top.size(), 3u);
  CHECK_EQ(top[0].id, 0);  // 10 * cap(8.4) = 84
  CHECK_EQ(top[1].id, 2);  // ties (5*8) break by id asc
  CHECK_EQ(top[2].id, 3);
  CHECK(std::isfinite(top[0].gamma));
  // Asking for more than n returns n entries; k <= 0 returns none.
  CHECK_EQ(dpc::TopGammaPoints(rho, delta, 99).size(), rho.size());
  CHECK_EQ(dpc::TopGammaPoints(rho, delta, 0).size(), 0u);
}

/// The pool's density order (chunk sorts + merge rounds, what Solve
/// stamps into DpcSolution::density_order) equals the serial
/// DensityOrder at every width, including odd run counts, on rho with
/// heavy ties (7 distinct values, so ids decide most comparisons), and on
/// the empty and one-point inputs.
void TestParallelDensityOrder() {
  auto pool = std::make_shared<dpc::ThreadPool>(8);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{5000}, size_t{20011}}) {
    dpc::Rng rng(4242 + n);
    std::vector<double> rho(n);
    for (double& r : rho) r = static_cast<double>(rng.NextBelow(7));
    const std::vector<dpc::PointId> expected = dpc::DensityOrder(rho);
    CHECK_EQ(expected.size(), n);
    for (const int threads : {1, 2, 3, 8}) {
      const dpc::ExecutionContext ctx(threads, pool);
      CHECK(dpc::DensityOrder(rho, ctx) == expected);
    }
  }
}

}  // namespace

int main() {
  TestParamsFactoring();
  TestParallelDensityOrder();
  TestSolutionThenFinalizeMatchesRunForAllAlgorithms();
  TestInterruptedSolve();
  TestTopGammaPoints();
  std::printf("solution_test OK\n");
  return 0;
}
