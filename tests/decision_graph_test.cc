// Decision-graph helpers: the graph is delta-sorted, SuggestDeltaMinForK
// re-thresholds to exactly k clusters via FinalizeClusters, the gap
// heuristic finds the planted k on separated data, and the CSV writer
// produces a parseable file.
#include <cstdio>
#include <string>
#include <vector>

#include "core/decision_graph.h"
#include "core/ex_dpc.h"
#include "core/halo.h"
#include "core/registry.h"
#include "data/generators.h"
#include "tests/test_util.h"

int main() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 8000;
  gen.num_clusters = 9;
  gen.overlap = 0.015;
  gen.noise_rate = 0.01;
  gen.seed = 31;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  dpc::DpcParams params;
  params.d_cut = 1200.0;
  params.rho_min = 4.0;
  params.delta_min = params.d_cut * 1.0001;  // permissive: threshold later

  dpc::ExDpc algo;
  dpc::DpcResult result = algo.Run(points, params);

  const auto graph = dpc::BuildDecisionGraph(result);
  CHECK_EQ(static_cast<dpc::PointId>(graph.size()), points.size());
  for (size_t i = 1; i < graph.size(); ++i) {
    CHECK(graph[i - 1].delta >= graph[i].delta);
  }

  // Exactly-k selection while k honest centers exist.
  for (const int k : {3, 6, 9}) {
    dpc::DpcParams p = params;
    p.delta_min = dpc::SuggestDeltaMinForK(result, params, k);
    CHECK(p.delta_min > params.d_cut);
    dpc::FinalizeClusters(p, &result);
    CHECK_EQ(result.num_clusters(), k);
  }

  // Asking for more centers than separable clusters must not push the
  // threshold to or below d_cut (which would admit grid-approximated
  // deltas as centers) — it yields the honest count instead.
  {
    dpc::DpcParams p = params;
    p.delta_min = dpc::SuggestDeltaMinForK(result, params, 500);
    CHECK(p.delta_min > params.d_cut);
    dpc::FinalizeClusters(p, &result);
    CHECK(result.num_clusters() <= 500);
    CHECK(result.num_clusters() >= 9);
  }

  // The gap heuristic lands on the planted cluster count.
  dpc::DpcParams gap_params = params;
  gap_params.delta_min = dpc::SuggestDeltaMinByGap(result, params);
  dpc::FinalizeClusters(gap_params, &result);
  CHECK_EQ(result.num_clusters(), 9);

  // Halo: sizes bounded by cluster membership, noise never in a halo.
  const dpc::HaloResult halo = dpc::ComputeHalo(points, result, params.d_cut);
  CHECK_EQ(static_cast<int64_t>(halo.halo_size.size()), result.num_clusters());
  for (size_t i = 0; i < result.label.size(); ++i) {
    if (result.label[i] < 0) CHECK(halo.in_halo[i] == 0);
  }

  // Registry round-trip plus a precise error for unknown names (full
  // per-algorithm coverage lives in registry_test).
  auto made = dpc::MakeAlgorithmByName("ex-dpc");
  CHECK(made.ok());
  CHECK(made.value()->name() == "Ex-DPC");
  CHECK(dpc::MakeAlgorithmByName("s-approx-dpc").ok());
  CHECK(dpc::MakeAlgorithmByName("nope").status().code() ==
        dpc::StatusCode::kNotFound);

  // CSV writer emits header + one row per point.
  const std::string path = "decision_graph_test.csv";
  CHECK(dpc::WriteDecisionGraphCsv(graph, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  CHECK(f != nullptr);
  int64_t lines = 0;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    if (c == '\n') ++lines;
  }
  std::fclose(f);
  std::remove(path.c_str());
  CHECK_EQ(lines, static_cast<int64_t>(graph.size()) + 1);

  std::printf("decision_graph_test OK\n");
  return 0;
}
