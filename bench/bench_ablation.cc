// Ablations of Approx-DPC's design choices (DESIGN.md experiment index).
//
//   A. Joint range search (§4.2) vs per-point range counts: how much of
//      Approx-DPC's rho-phase win comes from sharing tree traversals.
//   B. Cost-based LPT partitioning (§4.5) vs plain dynamic scheduling:
//      the load-balance quality (max/min thread load under the cost
//      model) and wall time. On 1-core machines only the balance metric
//      is meaningful.
//   C. The cell peaks' exact dependent search: the paper's density-ordered
//      subset scheme at Equation (2)'s s and forced under/over-partitioning,
//      beside the single-tree search the solve runs. Exits non-zero if any
//      peak's delta differs between them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "parallel/lpt_scheduler.h"

int main() {
  using namespace dpc;
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("Ablation", "Approx-DPC design choices", cfg);

  auto workloads = bench::RealWorkloads(cfg);

  // --- A: joint range search on/off. ---
  std::printf("A. Joint range search (rho phase time [s]; results identical)\n");
  {
    eval::Table table({"dataset", "joint (paper)", "per-point (Ex-DPC style)", "speedup"});
    for (const auto& w : workloads) {
      DpcParams params = w.params;
      const ExecutionContext ctx(cfg.max_threads);
      ApproxDpcOptions on;
      ApproxDpcOptions off;
      off.joint_range_search = false;
      const DpcResult a = ApproxDpc(on).Run(w.points, params, ctx);
      const DpcResult b = ApproxDpc(off).Run(w.points, params, ctx);
      table.AddRow({w.name, StrFormat("%.3f", a.stats.rho_seconds),
                    StrFormat("%.3f", b.stats.rho_seconds),
                    StrFormat("%.2fx", b.stats.rho_seconds /
                                           std::max(a.stats.rho_seconds, 1e-9))});
    }
    table.Print();
  }

  // --- B: LPT vs hash partitioning balance. ---
  std::printf("\nB. Load balancing: LPT vs hash partitioning (cost-model imbalance, "
              "8 simulated threads)\n");
  {
    eval::Table table({"dataset", "LPT makespan/mean", "hash makespan/mean"});
    for (const auto& w : workloads) {
      // Cost model of the rho phase: |P(c)| per cell.
      UniformGrid grid(w.points, w.params.d_cut / std::sqrt(static_cast<double>(w.points.dim())));
      std::vector<double> costs(static_cast<size_t>(grid.num_cells()));
      double total = 0.0;
      for (CellId c = 0; c < grid.num_cells(); ++c) {
        costs[static_cast<size_t>(c)] = static_cast<double>(grid.members(c).size());
        total += costs[static_cast<size_t>(c)];
      }
      const int threads = 8;
      const Schedule lpt = LptSchedule(costs, threads);
      // Hash partitioning: cell id modulo thread (LSH-DDP's strategy).
      std::vector<double> hash_load(static_cast<size_t>(threads), 0.0);
      for (size_t c = 0; c < costs.size(); ++c) hash_load[c % threads] += costs[c];
      double hash_max = 0.0;
      for (const double l : hash_load) hash_max = std::max(hash_max, l);
      const double mean = total / threads;
      table.AddRow({w.name, StrFormat("%.3f", lpt.makespan / mean),
                    StrFormat("%.3f", hash_max / mean)});
    }
    table.Print();
    std::printf("   (1.0 = perfect balance; LPT should sit at ~1.00, hash above it)\n");
  }

  // --- C: the peaks' exact dependent search. ---
  std::printf("\nC. Peak search: density-ordered subsets (Equation (2)) vs the "
              "solve's own kd-tree\n   (seconds; subset times include their "
              "s tree builds, the single tree is already built for rho)\n");
  bool peaks_agree = true;
  {
    eval::Table table({"dataset", "peaks/n", "s", "subsets [s]",
                       "single tree [s]", "note"});
    const ExecutionContext ctx(cfg.max_threads);
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto& w : workloads) {
      const PointId n = w.points.size();
      const int dim = w.points.dim();
      ComputeParams compute;
      compute.d_cut = w.params.d_cut;
      const DpcSolution sol = ApproxDpc().Solve(w.points, compute, ctx);
      const UniformGrid grid(
          w.points, compute.d_cut / std::sqrt(static_cast<double>(dim)));
      std::vector<double> delta(static_cast<size_t>(n), inf);
      std::vector<PointId> dep(static_cast<size_t>(n), -1);
      const std::vector<PointId> peaks = ApproxDpc::ElectPeaksAndSnap(
          w.points, grid, grid.CellCosts(), sol.rho, ctx, &delta, &dep);
      KdTree tree;
      tree.Build(w.points);
      internal::WallTimer timer;
      ExDpc::ComputeExactDeltas(w.points, tree, sol.rho, ctx, &delta, &dep,
                                &peaks);
      const double tree_s = timer.Lap();
      for (const PointId p : peaks) {
        peaks_agree = peaks_agree && delta[static_cast<size_t>(p)] ==
                                         sol.delta[static_cast<size_t>(p)];
      }
      const int solved = ApproxDpc::SolveNumSubsets(n, dim);
      for (const int s : {2, std::max(solved / 2, 3), solved, solved * 4}) {
        std::vector<double> subset_delta(static_cast<size_t>(n), inf);
        std::vector<PointId> subset_dep(static_cast<size_t>(n), -1);
        timer.Lap();
        ApproxDpc::ComputePeakDeltasBySubsets(w.points, sol.rho, peaks, s, ctx,
                                              &subset_delta, &subset_dep);
        const double subset_s = timer.Lap();
        for (const PointId p : peaks) {
          peaks_agree = peaks_agree && subset_delta[static_cast<size_t>(p)] ==
                                           delta[static_cast<size_t>(p)];
        }
        table.AddRow({w.name,
                      StrFormat("%.3f", static_cast<double>(peaks.size()) /
                                            static_cast<double>(n)),
                      std::to_string(s), StrFormat("%.4f", subset_s),
                      StrFormat("%.4f", tree_s),
                      s == solved ? "Equation (2) solution" : ""});
      }
    }
    table.Print();
  }
  if (!peaks_agree) {
    std::fprintf(stderr, "FAIL: subset and single-tree peak deltas differ\n");
    return 1;
  }
  std::printf("   PASS: every peak delta is bit-identical across all s and "
              "the single tree\n");
  return 0;
}
