// Per-layer probes of the traced run: each one calls a single layer's
// public entry point on the workload's own points and times it, inside a
// benchmark span named after the layer.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "core/approx_dpc.h"
#include "core/ex_dpc.h"
#include "core/kernels.h"
#include "core/registry.h"
#include "core/rng.h"
#include "core/soa.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "parallel/lpt_scheduler.h"
#include "parallel/omp_utils.h"
#include "parallel/parallel_for.h"
#include "store/solution_format.h"
#include "store/solution_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dpc::PointId;

constexpr int kKernelQueries = 32;
constexpr int kIndexQueries = 10000;
constexpr int kReps = 3;

/// Median wall seconds of `reps` calls of fn.
template <typename Fn>
double MedianSeconds(int reps, const Fn& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(SecondsSince(t0));
  }
  return Median(times);
}

std::vector<PointId> SeededIds(PointId n, int count, uint64_t seed) {
  dpc::Rng rng(seed);
  std::vector<PointId> ids(static_cast<size_t>(count));
  for (PointId& id : ids) {
    id = static_cast<PointId>(rng.NextBelow(static_cast<uint64_t>(n)));
  }
  return ids;
}

/// Each grid cell's densest member under DenserThan: Approx-DPC's peaks.
std::vector<PointId> ElectPeaks(const dpc::UniformGrid& grid,
                                const std::vector<double>& rho) {
  std::vector<PointId> peaks;
  peaks.reserve(static_cast<size_t>(grid.num_cells()));
  for (dpc::CellId c = 0; c < grid.num_cells(); ++c) {
    PointId peak = grid.members(c).front();
    for (const PointId i : grid.members(c)) {
      if (dpc::DenserThan(rho[static_cast<size_t>(i)], i,
                          rho[static_cast<size_t>(peak)], peak)) {
        peak = i;
      }
    }
    peaks.push_back(peak);
  }
  return peaks;
}

void KernelProbes(const Dataset& ds, dpc::obs::Trace* trace, Report* report) {
  dpc::obs::ScopedSpan span(trace, "probe/kernels");
  const dpc::PointSet& pts = ds.points;
  const PointId n = pts.size();
  const dpc::PointSetSoA soa(pts);
  const std::vector<PointId> queries =
      SeededIds(n, kKernelQueries, ds.seed + 2);
  const double r_sq = ds.compute.d_cut * ds.compute.d_cut;
  std::vector<double> out(static_cast<size_t>(n));
  PointId hits = 0;
  double best = 0.0;
  const double per_pt_ns = 1e9 / (static_cast<double>(kKernelQueries) *
                                  static_cast<double>(n));
  const double sqdist = MedianSeconds(5, [&] {
    for (const PointId q : queries) {
      dpc::kernels::SquaredDistanceBatch(soa, 0, n, pts[q], out.data());
    }
  });
  const double range = MedianSeconds(5, [&] {
    for (const PointId q : queries) {
      hits += dpc::kernels::RangeCountBatch(soa, 0, n, pts[q], r_sq);
    }
  });
  const double min_dist = MedianSeconds(5, [&] {
    for (const PointId q : queries) {
      best += dpc::kernels::MinDistanceBatch(soa, 0, n, pts[q]).d_sq;
    }
  });
  report->Check(hits > 0 && best == 0.0 &&
                    out[static_cast<size_t>(queries.back())] == 0.0,
                "kernel probes see each query point at distance 0");
  report->Metric("kernels.sqdist_ns_per_pt", sqdist * per_pt_ns, "ns");
  report->Metric("kernels.range_count_ns_per_pt", range * per_pt_ns, "ns");
  report->Metric("kernels.min_dist_ns_per_pt", min_dist * per_pt_ns, "ns");
}

}  // namespace

void ReportLayerProbes(const Dataset& ds, const SolveSamples& samples,
                       const Args& args, dpc::obs::Trace* trace,
                       Report* report) {
  const dpc::PointSet& pts = ds.points;
  const PointId n = pts.size();
  const int dim = pts.dim();
  const double d_cut = ds.compute.d_cut;
  const double cell_side = d_cut / std::sqrt(static_cast<double>(dim));
  const int nproc = dpc::HardwareThreads();
  const dpc::ExecutionContext ctx(nproc);

  KernelProbes(ds, trace, report);

  // --- index --------------------------------------------------------------
  dpc::KdTree tree;
  dpc::UniformGrid grid;
  std::vector<size_t> tree_bytes, grid_bytes;
  std::vector<dpc::CellId> cells;
  double kdtree_build_s = 0.0, grid_build_s = 0.0;
  {
    dpc::obs::ScopedSpan span(trace, "probe/index.build");
    kdtree_build_s = MedianSeconds(kReps, [&] {
      tree = dpc::KdTree();
      tree.Build(pts);
      tree_bytes.push_back(tree.MemoryBytes());
    });
    grid_build_s = MedianSeconds(kReps, [&] {
      grid = dpc::UniformGrid(pts, cell_side);
      grid_bytes.push_back(grid.MemoryBytes());
      cells.push_back(grid.num_cells());
    });
  }
  report->SameCount("index.kdtree_bytes (two builds)",
                    static_cast<double>(tree_bytes.front()),
                    static_cast<double>(tree_bytes.back()));
  report->SameCount("index.grid_bytes (two builds)",
                    static_cast<double>(grid_bytes.front()),
                    static_cast<double>(grid_bytes.back()));
  report->SameCount("index.grid_cells (two builds)",
                    static_cast<double>(cells.front()),
                    static_cast<double>(cells.back()));

  const std::vector<PointId> sample = SeededIds(n, kIndexQueries, ds.seed + 3);
  const std::vector<double>& ex_rho = samples.reference[0]->rho;
  PointId range_total = 0;
  double range_s = 0.0, nn_s = 0.0, joint_s = 0.0;
  PointId joint_points = 0;
  bool nn_ok = true;
  {
    dpc::obs::ScopedSpan span(trace, "probe/index.range_count");
    const Clock::time_point t0 = Clock::now();
    for (const PointId i : sample) range_total += tree.RangeCount(pts[i], d_cut);
    range_s = SecondsSince(t0);
  }
  {
    dpc::obs::ScopedSpan span(trace, "probe/index.joint_range_count");
    // Whole cells in seeded order until the sample size is covered.
    std::vector<dpc::CellId> order(static_cast<size_t>(grid.num_cells()));
    for (size_t c = 0; c < order.size(); ++c) order[c] = static_cast<dpc::CellId>(c);
    dpc::Rng rng(ds.seed + 4);
    for (size_t k = order.size(); k > 1; --k) {
      std::swap(order[k - 1], order[rng.NextBelow(k)]);
    }
    std::vector<double> lo(static_cast<size_t>(dim)), hi(static_cast<size_t>(dim));
    std::vector<PointId> counts;
    const Clock::time_point t0 = Clock::now();
    for (const dpc::CellId c : order) {
      if (joint_points >= kIndexQueries) break;
      const std::vector<PointId>& members = grid.members(c);
      for (int d = 0; d < dim; ++d) {
        lo[static_cast<size_t>(d)] = std::numeric_limits<double>::infinity();
        hi[static_cast<size_t>(d)] = -std::numeric_limits<double>::infinity();
      }
      for (const PointId i : members) {
        for (int d = 0; d < dim; ++d) {
          lo[static_cast<size_t>(d)] = std::min(lo[static_cast<size_t>(d)], pts[i][d]);
          hi[static_cast<size_t>(d)] = std::max(hi[static_cast<size_t>(d)], pts[i][d]);
        }
      }
      tree.JointRangeCount(lo.data(), hi.data(), members, d_cut, &counts);
      joint_points += static_cast<PointId>(members.size());
    }
    joint_s = SecondsSince(t0);
  }
  {
    dpc::obs::ScopedSpan span(trace, "probe/index.nn_denser");
    const Clock::time_point t0 = Clock::now();
    for (const PointId i : sample) {
      const double rho_i = ex_rho[static_cast<size_t>(i)];
      double dist = 0.0;
      const PointId nn = tree.NearestAccepted(
          pts[i],
          [&ex_rho, rho_i, i](PointId j) {
            return dpc::DenserThan(ex_rho[static_cast<size_t>(j)], j, rho_i, i);
          },
          &dist);
      nn_ok = nn_ok &&
              nn == samples.reference[0]->dependency[static_cast<size_t>(i)] &&
              dist == samples.reference[0]->delta[static_cast<size_t>(i)];
    }
    nn_s = SecondsSince(t0);
  }
  report->Check(range_total >= static_cast<PointId>(sample.size()),
                "kd-tree range counts include the query point");
  report->Check(nn_ok, "NearestAccepted(DenserThan) reproduces Ex-DPC's delta");
  report->Metric("index.kdtree_build_s", kdtree_build_s, "s", kReps);
  report->Metric("index.grid_build_s", grid_build_s, "s", kReps);
  report->Metric("index.grid_cells", static_cast<double>(grid.num_cells()), "count");
  report->Metric("index.range_count_us", range_s * 1e6 / kIndexQueries, "us",
                 kIndexQueries);
  report->Metric("index.joint_range_count_us_per_pt",
                 joint_s * 1e6 / static_cast<double>(joint_points), "us",
                 joint_points);
  report->Metric("index.nn_denser_us", nn_s * 1e6 / kIndexQueries, "us",
                 kIndexQueries);
  report->Metric("index.kdtree_bytes", static_cast<double>(tree.MemoryBytes()), "bytes");
  report->Metric("index.grid_bytes", static_cast<double>(grid.MemoryBytes()), "bytes");

  // --- core: Approx-DPC's peak search beside Ex-DPC's on the same peaks --
  const dpc::DpcSolution& approx = *samples.reference[1];
  const std::vector<PointId> peaks = ElectPeaks(grid, approx.rho);
  const int num_subsets = dpc::ApproxDpc::SolveNumSubsets(n, dim);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> subset_delta, tree_delta;
  std::vector<PointId> subset_dep, tree_dep;
  double approx_search_s = 0.0, ex_search_s = 0.0;
  {
    dpc::obs::ScopedSpan span(trace, "probe/core.approx.peak_search");
    approx_search_s = MedianSeconds(kReps, [&] {
      subset_delta.assign(static_cast<size_t>(n), inf);
      subset_dep.assign(static_cast<size_t>(n), -1);
      dpc::ApproxDpc::ComputePeakDeltasBySubsets(pts, approx.rho, peaks,
                                                 num_subsets, ctx,
                                                 &subset_delta, &subset_dep);
    });
  }
  {
    dpc::obs::ScopedSpan span(trace, "probe/core.ex.peak_search");
    ex_search_s = MedianSeconds(kReps, [&] {
      tree_delta.assign(static_cast<size_t>(n), inf);
      tree_dep.assign(static_cast<size_t>(n), -1);
      dpc::ExDpc::ComputeExactDeltas(pts, tree, approx.rho, ctx, &tree_delta,
                                     &tree_dep, &peaks);
    });
  }
  bool peaks_agree = true;
  for (const PointId p : peaks) {
    const size_t i = static_cast<size_t>(p);
    peaks_agree = peaks_agree && subset_delta[i] == tree_delta[i] &&
                  subset_dep[i] == tree_dep[i] &&
                  subset_delta[i] == approx.delta[i] &&
                  subset_dep[i] == approx.dependency[i];
  }
  report->Check(peaks_agree,
                "subset and single-tree peak searches agree with Approx-DPC");
  std::vector<PointId> order;
  const double density_order_s = MedianSeconds(kReps, [&] {
    dpc::obs::ScopedSpan span(trace, "probe/core.density_order");
    order = dpc::DensityOrder(approx.rho);
  });
  report->Check(order == approx.density_order,
                "DensityOrder reproduces the solution's density order");
  std::vector<double> label_s;
  {
    dpc::obs::ScopedSpan span(trace, "probe/core.label_sweep");
    for (int k = 0; k < 20; ++k) {
      dpc::ThresholdSpec spec;
      spec.rho_min = 2.0 * k;
      spec.delta_min = d_cut * (1.5 + k);
      const Clock::time_point t0 = Clock::now();
      const dpc::Labeling labeling = dpc::LabelSolution(approx, spec);
      label_s.push_back(SecondsSince(t0));
    }
  }
  const double peak_ratio =
      static_cast<double>(peaks.size()) / static_cast<double>(n);
  report->Metric("core.approx.peak_ratio", peak_ratio, "ratio");
  report->Metric("core.approx.num_subsets", num_subsets, "count");
  report->Metric("core.approx.peak_search_s", approx_search_s, "s", kReps);
  report->Metric("core.ex.peak_search_s", ex_search_s, "s", kReps);
  report->Metric("core.approx.snap_s",
                 Median(samples.phase[1][2]) - approx_search_s, "s");
  report->Metric("core.density_order_s", density_order_s, "s", kReps);
  report->Metric("core.label_ms", Median(label_s) * 1e3, "ms",
                 static_cast<int64_t>(label_s.size()));

  // --- parallel: one single-thread solve per algorithm (Figure 9) ---------
  double speedup[kNumAlgos] = {};
  for (int a = 0; a < kNumAlgos; ++a) {
    auto algo = std::move(dpc::MakeAlgorithmByName(kAlgos[a].registry)).value();
    dpc::obs::ScopedSpan span(trace, "probe/parallel.single_thread_solve");
    const Clock::time_point t0 = Clock::now();
    const dpc::DpcSolution one =
        algo->Solve(pts, ds.compute, dpc::ExecutionContext(1));
    const double wall = SecondsSince(t0);
    span.End();
    speedup[a] = wall / Median(samples.wall[a]);
    const dpc::Labeling labeling = dpc::LabelSolution(one, ds.threshold);
    report->Check(labeling.label == samples.reference_labels[a].label &&
                      labeling.centers == samples.reference_labels[a].centers,
                  std::string(kAlgos[a].key) +
                      " labels at 1 thread equal labels at nproc threads");
    if (a == 1) {
      report->SameCount("core.approx.peak_ratio (1 vs nproc threads)",
                        peak_ratio,
                        static_cast<double>(ElectPeaks(grid, one.rho).size()) /
                            static_cast<double>(n));
      report->SameCount("core.approx.num_subsets (1 vs nproc threads)",
                        num_subsets, dpc::ApproxDpc::SolveNumSubsets(one.size(), dim));
    }
    report->Metric(std::string("parallel.speedup.") + kAlgos[a].key,
                   speedup[a], "x");
  }
  const double imbalance = dpc::LptSchedule(grid.CellCosts(), nproc).Imbalance();
  report->SameCount(
      "parallel.lpt_imbalance (two grids)", imbalance,
      dpc::LptSchedule(dpc::UniformGrid(pts, cell_side).CellCosts(), nproc)
          .Imbalance());
  report->Metric("parallel.lpt_imbalance", imbalance, "ratio");
  constexpr int kDispatchCalls = 400;
  const double dispatch_s = MedianSeconds(5, [&] {
    dpc::obs::ScopedSpan span(trace, "probe/parallel.dispatch");
    for (int k = 0; k < kDispatchCalls; ++k) {
      dpc::ParallelFor(ctx, dpc::internal::kMinParallelIterations,
                       [](int64_t, int64_t) {});
    }
  });
  report->Metric("parallel.dispatch_us", dispatch_s * 1e6 / kDispatchCalls,
                 "us", 5 * kDispatchCalls);
  char line[160];
  std::snprintf(line, sizeof(line),
                "Figure 9: parallel.speedup.approx %.2fx on %d threads "
                "(near-linear means >= %.2fx)",
                speedup[1], nproc, 0.7 * nproc);
  report->Shape(speedup[1] >= 0.7 * nproc ? "PASS" : "FAIL", line);

  // --- store: direct Put / Fetch of a workload-sized solution ------------
  const std::string store_path = args.tmp_dir + "/probe-store.log";
  std::filesystem::remove(store_path);
  dpc::store::SolutionStoreOptions options;
  options.buffer_pool_bytes = 0;  // every Fetch reads and decodes the log
  auto opened = dpc::store::SolutionStore::Open(store_path, options);
  if (report->Check(opened.ok(), "probe store opens")) {
    std::unique_ptr<dpc::store::SolutionStore> store = std::move(opened).value();
    int key = 0;
    const double put_s = MedianSeconds(kReps, [&] {
      dpc::obs::ScopedSpan span(trace, "probe/store.put");
      report->Check(store->Put("probe-" + std::to_string(key++), approx).ok(),
                    "store Put");
    });
    std::shared_ptr<const dpc::DpcSolution> fetched;
    key = 0;
    const double fetch_s = MedianSeconds(kReps, [&] {
      dpc::obs::ScopedSpan span(trace, "probe/store.fetch");
      fetched = store->Fetch("probe-" + std::to_string(key++));
    });
    report->Check(fetched != nullptr && fetched->rho == approx.rho &&
                      fetched->delta == approx.delta &&
                      fetched->dependency == approx.dependency,
                  "store Fetch returns the stored solution bit for bit");
    report->Metric("store.put_ms", put_s * 1e3, "ms", kReps);
    report->Metric("store.fetch_ms", fetch_s * 1e3, "ms", kReps);
  }
  std::filesystem::remove(store_path);
  report->Metric("store.bytes_per_solution",
                 static_cast<double>(dpc::store::SerializedSolutionBytes(approx)),
                 "bytes");
}

}  // namespace perfbench
