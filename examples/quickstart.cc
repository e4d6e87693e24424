// Quickstart: the smallest end-to-end tour of the public API.
//
//   1. generate (or load) a point set
//   2. pick DPC parameters
//   3. run an algorithm (Approx-DPC is the recommended default: exact
//      centers, parameter-free approximation, parallel-friendly)
//   4. inspect clusters, noise, and per-phase statistics
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/approx_dpc.h"
#include "data/generators.h"
#include "eval/cluster_stats.h"

int main() {
  // 1. A 2-d dataset with 8 Gaussian clusters and 2% uniform noise.
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 20000;
  gen.num_clusters = 8;
  gen.dim = 2;
  gen.domain = 1e5;
  gen.overlap = 0.03;      // cluster sigma = 3% of the domain
  gen.noise_rate = 0.02;
  gen.seed = 7;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  // 2. DPC parameters: d_cut is the density ball radius; rho_min removes
  // sparse noise; delta_min (> d_cut) separates cluster centers on the
  // decision graph.
  dpc::DpcParams params;
  params.d_cut = 1500.0;
  params.rho_min = 5.0;
  params.delta_min = 8000.0;

  // 3. Run. The ExecutionContext carries the execution policy: which
  // thread pool to run on (default: one persistent process-wide pool,
  // reused across runs) and how many threads (0 = all). Grid cells are
  // always handed out in the paper's §4.5 cost-guided LPT order.
  dpc::ExecutionContext ctx;
  dpc::ApproxDpc algo;
  const dpc::DpcResult result = algo.Run(points, params, ctx);

  // 4. Report.
  const dpc::eval::ClusterSummary summary = dpc::eval::Summarize(result);
  std::printf("algorithm      : %s\n", std::string(algo.name()).c_str());
  std::printf("points         : %lld\n", static_cast<long long>(summary.num_points));
  std::printf("clusters found : %lld\n", static_cast<long long>(summary.num_clusters));
  std::printf("noise points   : %lld\n", static_cast<long long>(summary.num_noise));
  std::printf("largest cluster: %lld points\n",
              static_cast<long long>(summary.largest_cluster));
  std::printf("phases [s]     : build=%.3f rho=%.3f delta=%.3f label=%.3f (total %.3f)\n",
              result.stats.build_seconds, result.stats.rho_seconds,
              result.stats.delta_seconds, result.stats.label_seconds,
              result.stats.total_seconds);
  std::printf("index memory   : %.1f MB\n",
              static_cast<double>(result.stats.index_memory_bytes) / (1024.0 * 1024.0));

  // Every point knows its cluster id (or -1 for noise):
  std::printf("first 5 labels : ");
  for (int i = 0; i < 5; ++i) {
    std::printf("%lld ", static_cast<long long>(result.label[static_cast<size_t>(i)]));
  }
  std::printf("\n");
  return 0;
}
