// Determinism guarantees: identical results across repeated runs, across
// thread counts, across schedule strategies (the parallel phases only
// write disjoint per-point slots; ties are broken by id, never by arrival
// order — so static chunks, dynamic claiming, and LPT bins all land on
// the same bits), AND across kernel dispatch tiers — degenerate shapes
// included: a single-cell grid and an empty input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cfsfdp_a.h"
#include "baselines/lsh_ddp.h"
#include "core/approx_dpc.h"
#include "core/ex_dpc.h"
#include "core/kernels.h"
#include "core/registry.h"
#include "core/s_approx_dpc.h"
#include "data/generators.h"
#include "index/grid.h"
#include "parallel/execution_context.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

int main() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 8000;
  gen.num_clusters = 6;
  gen.noise_rate = 0.02;
  gen.seed = 99;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  // Same seed => bit-identical dataset.
  const dpc::PointSet again = dpc::data::GaussianBenchmark(gen);
  CHECK(points.raw() == again.raw());

  dpc::DpcParams params;
  params.d_cut = 1500.0;
  params.rho_min = 5.0;
  params.delta_min = 8000.0;

  for (const bool approx : {false, true}) {
    dpc::ExDpc exact_algo;
    dpc::ApproxDpc approx_algo;
    dpc::DpcAlgorithm& algo =
        approx ? static_cast<dpc::DpcAlgorithm&>(approx_algo)
               : static_cast<dpc::DpcAlgorithm&>(exact_algo);

    params.num_threads = 1;
    const dpc::DpcResult serial = algo.Run(points, params);
    const dpc::DpcResult serial2 = algo.Run(points, params);
    dpc::test::AssertSolutionsEqual(serial, serial2);

    params.num_threads = 4;
    const dpc::DpcResult parallel = algo.Run(points, params);
    dpc::test::AssertSolutionsEqual(serial, parallel);

    CHECK(serial.num_clusters() > 0);
  }

  // The Solve path at 1, 2 and 8 threads on the 8000-point set, which is
  // above the parallel-region guard for the kd-tree build (S-Approx-DPC's
  // candidate tree too), the grid build and the density-order sort:
  // rho/delta/dependency, the stamped density order and the labels must
  // be bit-identical, and the parallel order must equal DensityOrder.
  {
    CHECK(points.size() >= 2 * dpc::internal::kMinParallelIterations);
    auto sweep_pool = std::make_shared<dpc::ThreadPool>(8);
    dpc::ComputeParams compute = params.compute();
    compute.epsilon = 0.5;
    for (const char* name : {"ex-dpc", "approx-dpc", "s-approx-dpc"}) {
      auto algo = dpc::MakeAlgorithmByName(name);
      CHECK(algo.ok());
      const dpc::DpcSolution serial = algo.value()->Solve(
          points, compute,
          dpc::ExecutionContext(1, dpc::ScheduleStrategy::kCostGuided,
                                sweep_pool));
      CHECK(serial.density_order == dpc::DensityOrder(serial.rho));
      const dpc::Labeling serial_labels =
          dpc::LabelSolution(serial, params.threshold());
      CHECK(!serial_labels.centers.empty());
      for (const int threads : {2, 8}) {
        const dpc::DpcSolution wide = algo.value()->Solve(
            points, compute,
            dpc::ExecutionContext(threads, dpc::ScheduleStrategy::kCostGuided,
                                  sweep_pool));
        CHECK(wide.rho == serial.rho);
        CHECK(wide.delta == serial.delta);
        CHECK(wide.dependency == serial.dependency);
        CHECK(wide.density_order == serial.density_order);
        const dpc::Labeling labels = dpc::LabelSolution(wide, params.threshold());
        CHECK(labels.label == serial_labels.label);
        CHECK(labels.centers == serial_labels.centers);
      }
      std::printf("%-12s Solve identical across 1/2/8 threads\n", name);
    }
  }

  // Cells with at least 65 members (d_cut 3000 on the same set): the
  // joint rho of Approx-DPC and S-Approx-DPC takes the kd-tree's
  // multi-query path, over several query blocks with an overlapping last
  // one. Against the generic tier at one thread, every tier at 1, 2 and 8
  // threads must give the same rho/delta/dependency, density order and
  // labels; the joint rho must equal Ex-DPC's per-point counts, and the
  // centers Ex-DPC's.
  {
    using dpc::kernels::KernelTier;
    dpc::ComputeParams compute = params.compute();
    compute.d_cut = 3000.0;
    compute.epsilon = 0.5;
    const dpc::UniformGrid grid(
        points, compute.d_cut / std::sqrt(static_cast<double>(points.dim())));
    size_t largest = 0;
    for (dpc::CellId c = 0; c < grid.num_cells(); ++c) {
      largest = std::max(largest, grid.members(c).size());
    }
    CHECK(largest >= 65);
    const std::vector<KernelTier> tiers = dpc::kernels::SupportedTiers();
    const KernelTier restore = dpc::kernels::ActiveTier();
    auto pool = std::make_shared<dpc::ThreadPool>(8);
    const auto solve = [&](const char* name, KernelTier tier, int threads) {
      CHECK(dpc::kernels::SetActiveTier(tier));
      auto algo = dpc::MakeAlgorithmByName(name);
      CHECK(algo.ok());
      return algo.value()->Solve(
          points, compute,
          dpc::ExecutionContext(threads, dpc::ScheduleStrategy::kCostGuided,
                                pool));
    };
    const dpc::DpcSolution ex = solve("ex-dpc", KernelTier::kGeneric, 1);
    const dpc::Labeling ex_labels = dpc::LabelSolution(ex, params.threshold());
    CHECK(!ex_labels.centers.empty());
    for (const char* name : {"approx-dpc", "s-approx-dpc"}) {
      const dpc::DpcSolution base = solve(name, KernelTier::kGeneric, 1);
      const dpc::Labeling base_labels =
          dpc::LabelSolution(base, params.threshold());
      CHECK(base.rho == ex.rho);
      CHECK(base_labels.centers == ex_labels.centers);
      for (const KernelTier tier : tiers) {
        for (const int threads : {1, 2, 8}) {
          const dpc::DpcSolution sol = solve(name, tier, threads);
          CHECK(sol.rho == base.rho);
          CHECK(sol.delta == base.delta);
          CHECK(sol.dependency == base.dependency);
          CHECK(sol.density_order == base.density_order);
          const dpc::Labeling labels =
              dpc::LabelSolution(sol, params.threshold());
          CHECK(labels.label == base_labels.label);
          CHECK(labels.centers == base_labels.centers);
        }
      }
      std::printf("%-12s identical across tiers x 1/2/8 threads with >= 65-member cells\n",
                  name);
    }
    CHECK(dpc::kernels::SetActiveTier(restore));
  }

  // The sampled algorithms draw their randomness from seeded hashes
  // (LSH projection directions, S-Approx-DPC's candidate coins), never
  // from thread scheduling — labels stay bit-identical across 1/2/8
  // workers.
  {
    dpc::LshDdp lsh_ddp;
    dpc::SApproxDpc s_approx;
    dpc::CfsfdpA cfsfdp_a;
    dpc::DpcParams p = params;
    p.epsilon = 0.5;
    for (dpc::DpcAlgorithm* algo :
         {static_cast<dpc::DpcAlgorithm*>(&lsh_ddp),
          static_cast<dpc::DpcAlgorithm*>(&s_approx),
          static_cast<dpc::DpcAlgorithm*>(&cfsfdp_a)}) {
      p.num_threads = 1;
      const dpc::DpcResult serial = algo->Run(points, p);
      for (const int threads : {2, 8}) {
        p.num_threads = threads;
        dpc::test::AssertSolutionsEqual(serial, algo->Run(points, p));
      }
      CHECK(serial.num_clusters() > 0);
    }
  }

  // API v2 sweep: every registered algorithm under
  // {static, dynamic, LPT} x {1, 2, 8} threads, all through ONE shared
  // ThreadPool — labels must be bit-identical to the 1-thread static
  // baseline. (A smaller input keeps the quadratic baselines affordable
  // while still exceeding the parallel-region threshold.)
  dpc::data::GaussianBenchmarkParams small = gen;
  small.num_points = 3000;
  small.seed = 123;
  const dpc::PointSet pts = dpc::data::GaussianBenchmark(small);
  dpc::DpcParams small_params = params;
  small_params.num_threads = 0;
  small_params.epsilon = 0.5;
  auto pool = std::make_shared<dpc::ThreadPool>(8);
  {
    const dpc::DpcParams& p = small_params;
    for (const std::string& name : dpc::RegisteredAlgorithmNames()) {
      auto algo = dpc::MakeAlgorithmByName(name);
      CHECK(algo.ok());
      const dpc::ExecutionContext base(1, dpc::ScheduleStrategy::kStatic, pool);
      const dpc::DpcResult baseline = algo.value()->Run(pts, p, base);
      CHECK(baseline.num_clusters() > 0);
      for (const auto strategy :
           {dpc::ScheduleStrategy::kStatic, dpc::ScheduleStrategy::kDynamic,
            dpc::ScheduleStrategy::kCostGuided}) {
        for (const int threads : {1, 2, 8}) {
          const dpc::ExecutionContext ctx(threads, strategy, pool);
          dpc::test::AssertSolutionsEqual(baseline, algo.value()->Run(pts, p, ctx));
        }
      }
      std::printf("%-12s identical across strategies x threads\n", name.c_str());
    }
  }

  // A duplicated integer lattice puts exact ties in rho and in distance
  // everywhere; the grid algorithms' parallel peak-election + snap pass
  // and peak search must still land on the same bits at any width.
  // 10800 points in ~3000 cells: both passes form parallel regions.
  const dpc::PointSet lattice = dpc::test::LatticeWithDuplicates(2, 60, 3);
  dpc::DpcParams lattice_params;
  lattice_params.d_cut = 15.0;
  lattice_params.rho_min = 0.0;
  lattice_params.delta_min = 40.0;
  lattice_params.epsilon = 0.5;
  {
    const dpc::DpcParams& p = lattice_params;
    for (const char* name : {"approx-dpc", "s-approx-dpc"}) {
      auto algo = dpc::MakeAlgorithmByName(name);
      CHECK(algo.ok());
      const dpc::DpcResult serial =
          algo.value()->Run(lattice, p, dpc::ExecutionContext(1));
      CHECK(serial.num_clusters() > 0);
      for (const int threads : {2, 8}) {
        const dpc::ExecutionContext ctx(threads);
        dpc::test::AssertSolutionsEqual(serial,
                                        algo.value()->Run(lattice, p, ctx));
      }
      std::printf("%-12s identical across threads on the tied lattice\n", name);
    }
  }

  // Degenerate shapes: a single-cell grid (a tight 8x8 blob at
  // (1000, 1000) under d_cut 1e6 — grid side ~7.07e5, so every point
  // lands in cell (0, 0)) and an empty input, on 1 and 2 threads.
  {
    dpc::PointSet blob(2);
    for (int i = 0; i < 64; ++i) {
      const double xy[2] = {1000.0 + 13.0 * (i % 8), 1000.0 + 17.0 * (i / 8)};
      blob.Add(xy);
    }
    CHECK_EQ(dpc::UniformGrid(blob, 1e6 / std::sqrt(2.0)).num_cells(), 1);
    const dpc::PointSet empty(2);
    dpc::DpcParams p;
    p.d_cut = 1e6;
    p.rho_min = 2.0;
    p.delta_min = 4e6;
    p.epsilon = 0.5;
    for (const char* name : {"ex-dpc", "approx-dpc", "s-approx-dpc"}) {
      auto algo = dpc::MakeAlgorithmByName(name);
      CHECK(algo.ok());
      const dpc::DpcResult serial =
          algo.value()->Run(blob, p, dpc::ExecutionContext(1));
      CHECK_EQ(serial.label.size(), static_cast<size_t>(blob.size()));
      dpc::test::AssertSolutionsEqual(
          serial, algo.value()->Run(blob, p, dpc::ExecutionContext(2)));
      for (const int threads : {1, 2}) {
        const dpc::DpcResult none =
            algo.value()->Run(empty, p, dpc::ExecutionContext(threads));
        CHECK_EQ(none.label.size(), 0u);
        CHECK_EQ(none.centers.size(), 0u);
      }
    }
  }

  // Cross-tier identity: every kernel tier this host runs must give every
  // registered algorithm the generic tier's rho/delta/dependency/labels
  // bit for bit, at 1 and 8 threads. kernels_test proves each kernel
  // equals the scalar reference per call; this is the whole-algorithm
  // check on top. Fixtures: the 3000-point Gaussian set (dim 2), the same
  // generator at dim 5 (the general-dimension column loops, odd
  // remainder included), and a 2700-point cut of the tied lattice (the
  // quadratic baselines keep the full 10800 points too slow here).
  {
    using dpc::kernels::KernelTier;
    const std::vector<KernelTier> tiers = dpc::kernels::SupportedTiers();
    CHECK(tiers.front() == KernelTier::kGeneric);
    const KernelTier restore = dpc::kernels::ActiveTier();

    dpc::data::GaussianBenchmarkParams wide = small;
    wide.num_points = 2000;
    wide.dim = 5;
    const dpc::PointSet pts5 = dpc::data::GaussianBenchmark(wide);
    const dpc::PointSet small_lattice =
        dpc::test::LatticeWithDuplicates(2, 30, 3);
    dpc::DpcParams wide_params = small_params;
    wide_params.d_cut = 6000.0;
    wide_params.delta_min = 20000.0;

    const struct {
      const char* name;
      const dpc::PointSet& points;
      const dpc::DpcParams& params;
    } fixtures[] = {{"gaussian-2d", pts, small_params},
                    {"gaussian-5d", pts5, wide_params},
                    {"lattice", small_lattice, lattice_params}};
    for (const auto& f : fixtures) {
      for (const std::string& name : dpc::RegisteredAlgorithmNames()) {
        auto algo = dpc::MakeAlgorithmByName(name);
        CHECK(algo.ok());
        for (const int threads : {1, 8}) {
          const dpc::ExecutionContext ctx(
              threads, dpc::ScheduleStrategy::kCostGuided, pool);
          CHECK(dpc::kernels::SetActiveTier(KernelTier::kGeneric));
          const dpc::DpcResult generic =
              algo.value()->Run(f.points, f.params, ctx);
          CHECK(generic.num_clusters() > 0);
          for (size_t t = 1; t < tiers.size(); ++t) {
            CHECK(dpc::kernels::SetActiveTier(tiers[t]));
            dpc::test::AssertSolutionsEqual(
                generic, algo.value()->Run(f.points, f.params, ctx));
          }
        }
      }
      std::printf("%-12s all algorithms identical across %zu kernel tier(s)\n",
                  f.name, tiers.size());
    }
    CHECK(dpc::kernels::SetActiveTier(restore));
  }

  std::printf("determinism_test OK\n");
  return 0;
}
