// DPC vs DBSCAN on overlapping Gaussian clusters (the paper's Figure 2
// and Example 2).
//
// The paper's claim: when dense groups are bridged by border points,
// DBSCAN merges them into one cluster while DPC still separates them,
// because DPC splits a dense region at its density peaks. This example
// reproduces the setup: DBSCAN's eps is chosen via OPTICS so that the
// extraction yields (as close as possible to) 15 clusters, exactly as
// Example 2 prescribes, and both results are scored against the
// generating mixture.
//
// Build & run:  ./build/examples/compare_dbscan [dpc.csv dbscan.csv]
#include <algorithm>
#include <cstdio>

#include "baselines/dbscan.h"
#include "baselines/optics.h"
#include "core/ex_dpc.h"
#include "data/generators.h"
#include "data/io.h"
#include "eval/rand_index.h"

int main(int argc, char** argv) {
  // S2-like with deliberate overlap so border points bridge clusters.
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 10000;
  gen.num_clusters = 15;
  gen.dim = 2;
  gen.domain = 1e5;
  gen.overlap = 0.035;  // enough overlap that DBSCAN bridges clusters
  gen.noise_rate = 0.01;
  gen.seed = 22;
  std::vector<int64_t> truth;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen, &truth);

  // --- DPC ---
  dpc::DpcParams params;
  params.d_cut = 1400.0;
  params.rho_min = 4.0;
  params.delta_min = 9000.0;
  dpc::ExDpc dpc_algo;
  const dpc::DpcResult dpc_result = dpc_algo.Run(points, params);

  // --- DBSCAN, parameterized via OPTICS for ~15 clusters (Example 2) ---
  const int min_pts = 8;
  const double max_eps = 4000.0;
  const dpc::OpticsResult optics = dpc::Optics(points, {.max_eps = max_eps, .min_pts = min_pts});
  const double eps = dpc::FindThresholdForClusterCount(optics, max_eps, 15);
  const dpc::DbscanResult db = dpc::Dbscan(points, {.eps = eps, .min_pts = min_pts});

  const double ri_dpc = dpc::eval::RandIndex(dpc_result.label, truth);
  const double ri_db = dpc::eval::RandIndex(db.label, truth);
  const double ari_dpc = dpc::eval::AdjustedRandIndex(dpc_result.label, truth);
  const double ari_db = dpc::eval::AdjustedRandIndex(db.label, truth);

  std::printf("workload: 15 Gaussian clusters, overlap sigma = %.1f%% of domain\n",
              gen.overlap * 100.0);
  std::printf("%-22s %-10s %-10s %-10s\n", "algorithm", "clusters", "RandIdx", "ARI");
  std::printf("%-22s %-10lld %-10.4f %-10.4f\n", "DPC (Ex-DPC)",
              static_cast<long long>(dpc_result.num_clusters()), ri_dpc, ari_dpc);
  std::printf("%-22s %-10lld %-10.4f %-10.4f   (eps=%.1f via OPTICS)\n", "DBSCAN",
              static_cast<long long>(db.num_clusters), ri_db, ari_db, eps);

  // Figure 2's qualitative claim, quantified: DPC separates the
  // overlapping Gaussians better than DBSCAN at matched cluster counts.
  if (ari_dpc > ari_db) {
    std::printf("\n=> DPC separates the overlapping clusters better "
                "(ARI %.3f vs %.3f), reproducing Figure 2.\n", ari_dpc, ari_db);
  } else {
    std::printf("\n=> On this draw DBSCAN kept up (ARI %.3f vs %.3f); increase "
                "overlap to see the merge effect.\n", ari_dpc, ari_db);
  }

  if (argc > 2) {
    (void)dpc::data::SaveLabeledCsv(points, dpc_result.label, argv[1]);
    (void)dpc::data::SaveLabeledCsv(points, db.label, argv[2]);
    std::printf("labeled dumps written to %s and %s (plot with any CSV tool)\n",
                argv[1], argv[2]);
  }
  return 0;
}
