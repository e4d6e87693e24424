// Table 4 — Rand index of LSH-DDP and Approx-DPC on the real-like
// datasets at default d_cut (1000/1000/1000/5000).
//
// Expected shape: Approx-DPC beats LSH-DDP on every dataset and stays
// >= ~0.96 everywhere (the paper reports 0.999/0.996/0.996/0.960).
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "eval/rand_index.h"

int main() {
  using namespace dpc;
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("Table 4", "Rand index of LSH-DDP and Approx-DPC on real-like datasets",
                     cfg);

  eval::Table table({"dataset", "n", "LSH-DDP", "Approx-DPC"});
  for (auto& w : bench::RealWorkloads(cfg)) {
    DpcParams params = w.params;
    const ExecutionContext ctx(cfg.max_threads);
    ExDpc exact;
    const DpcResult ground = exact.Run(w.points, params, ctx);
    LshDdp lsh;
    ApproxDpc approx;
    table.AddRow({w.name, std::to_string(w.points.size()),
                  StrFormat("%.3f", eval::RandIndex(lsh.Run(w.points, params, ctx).label,
                                                    ground.label)),
                  StrFormat("%.3f", eval::RandIndex(approx.Run(w.points, params, ctx).label,
                                                    ground.label))});
  }
  table.Print();
  std::printf("\nexpected shape (Table 4): Approx-DPC > LSH-DDP on every row.\n");
  return 0;
}
