// Figure 1 — decision graph of an S2-like dataset.
//
// The paper's Figure 1(b) shows that on S2 (15 Gaussian clusters) exactly
// 15 points stand out with large dependent distances. This bench prints
// the top of the decision graph and the separation ratio between the
// 15th and 16th cluster-candidate deltas; a large ratio is the visual
// gap users exploit to pick delta_min.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/decision_graph.h"
#include "core/ex_dpc.h"
#include "eval/rand_index.h"
#include "eval/svg_plot.h"

int main() {
  using namespace dpc;
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("Figure 1", "decision graph of S2", cfg);

  bench::Workload w = bench::SxWorkload(cfg, 2);
  const ExecutionContext ctx(cfg.max_threads);
  w.params.delta_min = w.params.d_cut * 1.01;  // permissive; graph first

  ExDpc algo;
  DpcResult r = algo.Run(w.points, w.params, ctx);
  const auto graph = BuildDecisionGraph(r);

  eval::Table table({"rank", "rho", "delta"});
  // Rank among non-noise candidates (what the analyst looks at).
  std::vector<DecisionPoint> candidates;
  for (const auto& dp : graph) {
    if (dp.rho >= w.params.rho_min) candidates.push_back(dp);
  }
  for (size_t i = 0; i < candidates.size() && i < 18; ++i) {
    table.AddRow({std::to_string(i + 1), StrFormat("%.1f", candidates[i].rho),
                  std::isinf(candidates[i].delta) ? "inf"
                                                  : StrFormat("%.1f", candidates[i].delta)});
  }
  table.Print();

  const double d15 = candidates[14].delta;
  const double d16 = candidates[15].delta;
  std::printf("\ndelta(15th) / delta(16th) separation ratio: %.1fx\n",
              std::isinf(d15) ? 999.0 : d15 / d16);
  std::printf("expected shape: 15 candidates tower above the rest "
              "(the dataset has 15 Gaussian clusters)\n");

  const double suggested = SuggestDeltaMinForK(r, w.params, 15);
  DpcParams final_params = w.params;
  final_params.delta_min = suggested;
  FinalizeClusters(final_params, &r);
  std::printf("clusters at the suggested threshold (%.1f): %lld\n", suggested,
              static_cast<long long>(r.num_clusters()));

  // Render both panels of Figure 1: the dataset and its decision graph.
  {
    eval::SvgOptions opt;
    opt.title = "Figure 1(a): S2 clustered by Ex-DPC";
    (void)eval::WriteScatterSvg(w.points, r.label, r.centers, "fig1a_s2.svg", opt);
    opt.title = "Figure 1(b): decision graph of S2";
    (void)eval::WriteDecisionGraphSvg(graph, "fig1b_decision_graph.svg", opt);
    std::printf("renderings written to fig1a_s2.svg and fig1b_decision_graph.svg\n");
  }
  return 0;
}
