// Table 5 — running time vs accuracy of S-Approx-DPC as eps grows.
//
// Reproduces: eps in {0.2, 0.4, 0.6, 0.8, 1.0} on Airline-like and
// Household-like data. Expected shape: time decreases monotonically with
// eps while the Rand index decays only slightly (the paper: Airline
// 32.2s/0.998 at 0.2 down to 16.4s/0.969 at 1.0).
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "eval/rand_index.h"

int main() {
  using namespace dpc;
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("Table 5", "S-Approx-DPC time vs Rand index across eps", cfg);

  for (const char* name : {"Airline", "Household"}) {
    bench::Workload target;
    for (auto& w : bench::RealWorkloads(cfg)) {
      if (w.name == name) target = std::move(w);
    }
    DpcParams params = target.params;
    const ExecutionContext ctx(cfg.max_threads);

    ExDpc exact;
    const DpcResult ground = exact.Run(target.points, params, ctx);

    std::printf("%s (n=%lld)\n", name, static_cast<long long>(target.points.size()));
    eval::Table table({"eps", "time [s]", "Rand index", "clusters"});
    for (const double eps : {0.2, 0.4, 0.6, 0.8, 1.0}) {
      DpcParams p = params;
      p.epsilon = eps;
      SApproxDpc algo;
      const DpcResult r = algo.Run(target.points, p, ctx);
      table.AddRow({StrFormat("%.1f", eps), StrFormat("%.3f", r.stats.total_seconds),
                    StrFormat("%.3f", eval::RandIndex(r.label, ground.label)),
                    std::to_string(r.num_clusters())});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf("expected shape (Table 5): time strictly falls as eps grows; "
              "Rand index drifts down only slightly.\n");
  return 0;
}
