// dpc_cli — command-line clustering over CSV files.
//
// Usage:
//   dpc_cli --input points.csv --d-cut 1000 [options]
//
// Options:
//   --input PATH        headerless CSV of coordinates (required unless --demo)
//   --demo              use a built-in 15-cluster demo dataset instead
//   --algorithm NAME    scan | rtree-scan | lsh-ddp | cfsfdp-a | ex-dpc |
//                       approx-dpc (default) | s-approx-dpc
//   --d-cut X           cutoff distance (required)
//   --rho-min X         noise threshold (default 10)
//   --delta-min X       center threshold (default: auto via decision-graph gap)
//   --epsilon X         S-Approx-DPC approximation parameter (default 1.0)
//   --threads N         worker threads (default 0 = all hardware threads;
//                       runs execute on one persistent shared pool)
//   --opt KEY=VALUE     per-algorithm option, repeatable. Examples:
//                         approx-dpc: joint_range_search=false
//                         lsh-ddp:    num_tables=6, num_bits=5
//                         cfsfdp-a:   sample_rate=0.5
//                       ex-dpc, scan and rtree-scan take no options.
//                       Unknown keys fail with the recognized-key menu.
//   --k N               instead of --delta-min: pick exactly N centers
//   --sweep KEY=a,b,c   threshold sweep mode: KEY is delta_min or rho_min.
//                       Runs the expensive compute phase ONCE (Solve),
//                       then applies each threshold as an O(n) finalize —
//                       the decision-graph exploration workflow. Prints
//                       one summary row per value plus the measured
//                       compute-once speedup.
//   --output PATH       write "x0,...,xd-1,label" CSV
//   --decision-graph P  write the decision graph CSV
//   --halo              also report cluster core/halo sizes
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/decision_graph.h"
#include "core/halo.h"
#include "core/kernels.h"
#include "core/options.h"
#include "core/registry.h"
#include "data/generators.h"
#include "data/io.h"
#include "eval/cluster_stats.h"

namespace {

struct CliArgs {
  std::string input;
  bool demo = false;
  std::string algorithm = "approx-dpc";
  double d_cut = -1.0;
  double rho_min = 10.0;
  double delta_min = -1.0;  // auto
  double epsilon = 1.0;
  int threads = 0;
  int k = 0;
  std::vector<std::string> opts;  // raw key=value strings
  std::string sweep;              // "delta_min=a,b,c" / "rho_min=a,b,c"
  std::string output;
  std::string decision_graph;
  bool halo = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --input points.csv --d-cut X [--algorithm NAME] "
               "[--rho-min X] [--delta-min X | --k N] [--epsilon X] "
               "[--threads N] [--opt key=value ...] "
               "[--sweep delta_min=a,b,c | --sweep rho_min=a,b,c] "
               "[--output out.csv] "
               "[--decision-graph dg.csv] [--halo] [--demo]\n"
               "  --threads N   parallelism degree (0 = all hardware threads)\n"
               "  --opt k=v     per-algorithm option, repeatable — e.g.\n"
               "                joint_range_search=false, num_tables=6, num_bits=5,\n"
               "                sample_rate=0.5\n"
               "  --sweep KEY=a,b,c  compute once, finalize per threshold\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](double* out) {
      if (i + 1 >= argc) return false;
      *out = std::atof(argv[++i]);
      return true;
    };
    if (a == "--input" && i + 1 < argc) {
      args->input = argv[++i];
    } else if (a == "--demo") {
      args->demo = true;
    } else if (a == "--algorithm" && i + 1 < argc) {
      args->algorithm = argv[++i];
    } else if (a == "--d-cut") {
      if (!next(&args->d_cut)) return false;
    } else if (a == "--rho-min") {
      if (!next(&args->rho_min)) return false;
    } else if (a == "--delta-min") {
      if (!next(&args->delta_min)) return false;
    } else if (a == "--epsilon") {
      if (!next(&args->epsilon)) return false;
    } else if (a == "--threads" && i + 1 < argc) {
      args->threads = std::atoi(argv[++i]);
    } else if (a == "--opt" && i + 1 < argc) {
      args->opts.emplace_back(argv[++i]);
    } else if (a == "--sweep" && i + 1 < argc) {
      args->sweep = argv[++i];
    } else if (a == "--k" && i + 1 < argc) {
      args->k = std::atoi(argv[++i]);
    } else if (a == "--output" && i + 1 < argc) {
      args->output = argv[++i];
    } else if (a == "--decision-graph" && i + 1 < argc) {
      args->decision_graph = argv[++i];
    } else if (a == "--halo") {
      args->halo = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

/// The --sweep mode: one Solve, many O(n) finalizes. Returns the process
/// exit code.
int RunSweep(dpc::DpcAlgorithm& algo, const dpc::PointSet& points,
             const CliArgs& args) {
  const size_t eq = args.sweep.find('=');
  const std::string key = eq == std::string::npos ? "" : args.sweep.substr(0, eq);
  if (key != "delta_min" && key != "rho_min") {
    std::fprintf(stderr,
                 "error: --sweep expects delta_min=a,b,c or rho_min=a,b,c\n");
    return 2;
  }
  std::vector<double> values;
  for (const std::string& item : dpc::StrSplit(args.sweep.substr(eq + 1), ',')) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (item.empty() || end != item.c_str() + item.size()) {
      std::fprintf(stderr, "error: --sweep value '%s' is not a number\n",
                   item.c_str());
      return 2;
    }
    values.push_back(v);
  }

  // Sweep mode prints per-threshold summaries only; flags that emit a
  // single labeling's artifacts would be silently meaningless, so reject
  // them instead of ignoring them.
  if (args.k > 0 || !args.output.empty() || !args.decision_graph.empty() ||
      args.halo) {
    std::fprintf(stderr,
                 "error: --k, --output, --decision-graph, and --halo are not "
                 "supported with --sweep (which labeling would they use?)\n");
    return 2;
  }

  const dpc::ComputeParams compute{args.d_cut, args.epsilon};
  if (const dpc::Status s = compute.Validate(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  dpc::ThresholdSpec base;
  base.rho_min = args.rho_min;
  // args.delta_min < 0 means "not given" (the single-run auto default).
  // An explicit value must either be valid (rho_min sweeps use it) or is
  // contradictory (delta_min sweeps replace it) — never silently fixed.
  if (args.delta_min >= 0.0) {
    if (key == "delta_min") {
      std::fprintf(stderr,
                   "error: --delta-min conflicts with --sweep delta_min=...\n");
      return 2;
    }
    if (args.delta_min <= args.d_cut) {
      std::fprintf(stderr,
                   "error: delta_min must exceed d_cut (got %g vs %g)\n",
                   args.delta_min, args.d_cut);
      return 1;
    }
  }
  base.delta_min =
      args.delta_min >= 0.0 ? args.delta_min : 2.0 * args.d_cut;
  // Validate every threshold before paying for the compute phase.
  for (const double v : values) {
    dpc::ThresholdSpec spec = base;
    (key == "delta_min" ? spec.delta_min : spec.rho_min) = v;
    if (const dpc::Status s = spec.Validate(args.d_cut); !s.ok()) {
      std::fprintf(stderr, "error: sweep value %g: %s\n", v,
                   s.ToString().c_str());
      return 1;
    }
  }

  const dpc::ExecutionContext ctx(args.threads);
  const auto solve_start = std::chrono::steady_clock::now();
  const dpc::DpcSolution solution = algo.Solve(points, compute, ctx);
  const double solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    solve_start)
          .count();
  std::printf("%s solved %lld points (d=%d) once in %.3fs; sweeping %s over "
              "%zu values:\n",
              std::string(algo.name()).c_str(),
              static_cast<long long>(points.size()), points.dim(),
              solve_seconds, key.c_str(), values.size());
  std::printf("%12s %10s %10s %14s\n", key.c_str(), "clusters", "noise",
              "finalize [ms]");

  double finalize_seconds = 0.0;
  for (const double v : values) {
    dpc::ThresholdSpec spec = base;
    (key == "delta_min" ? spec.delta_min : spec.rho_min) = v;
    const auto start = std::chrono::steady_clock::now();
    const dpc::Labeling labeling = dpc::LabelSolution(solution, spec);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    finalize_seconds += seconds;
    int64_t noise = 0;
    for (const int64_t label : labeling.label) {
      if (label == dpc::kNoise) ++noise;
    }
    std::printf("%12g %10lld %10lld %14.3f\n", v,
                static_cast<long long>(labeling.centers.size()),
                static_cast<long long>(noise), seconds * 1e3);
  }
  const double recompute_estimate =
      solve_seconds * static_cast<double>(values.size());
  std::printf("sweep total: %.3fms of finalize vs ~%.3fs of per-threshold "
              "recompute (%.0fx)\n",
              finalize_seconds * 1e3, recompute_estimate,
              recompute_estimate / std::max(finalize_seconds, 1e-9));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  if (args.input.empty() && !args.demo) return Usage(argv[0]);

  std::printf("kernels: %s\n", dpc::kernels::DescribeKernels().c_str());

  dpc::PointSet points(1);
  if (args.demo) {
    dpc::data::GaussianBenchmarkParams gen;
    gen.num_points = 20000;
    gen.num_clusters = 15;
    gen.noise_rate = 0.01;
    points = dpc::data::GaussianBenchmark(gen);
    if (args.d_cut <= 0.0) args.d_cut = 1200.0;
    std::printf("demo dataset: 15 Gaussian clusters, n=20000, domain [0,1e5]^2\n");
  } else {
    auto loaded = dpc::data::LoadCsv(args.input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    points = std::move(loaded).value();
  }
  if (args.d_cut <= 0.0) {
    std::fprintf(stderr, "error: --d-cut is required and must be positive\n");
    return Usage(argv[0]);
  }
  if (args.threads < 0) {
    std::fprintf(stderr, "error: --threads must be >= 0 (0 = all)\n");
    return Usage(argv[0]);
  }

  auto options = dpc::ParseOptionList(args.opts);
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n", options.status().ToString().c_str());
    return Usage(argv[0]);
  }
  auto algo = dpc::MakeAlgorithmByName(args.algorithm, options.value());
  if (!algo.ok()) {
    std::fprintf(stderr, "error: %s\n", algo.status().ToString().c_str());
    return 1;
  }

  if (!args.sweep.empty()) {
    return RunSweep(*algo.value(), points, args);
  }

  dpc::DpcParams params;
  params.d_cut = args.d_cut;
  params.rho_min = args.rho_min;
  params.epsilon = args.epsilon;
  // Provisional threshold; refined below when auto/k mode is active.
  const bool auto_threshold = args.delta_min <= args.d_cut;
  params.delta_min = auto_threshold ? args.d_cut * 1.0000001 : args.delta_min;
  if (const dpc::Status s = params.Validate(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }

  // Execution policy (API v2): thread count and the shared persistent
  // pool live on the context, not in DpcParams.
  const dpc::ExecutionContext ctx(args.threads);
  dpc::DpcResult result = algo.value()->Run(points, params, ctx);

  if (auto_threshold) {
    const double suggested = args.k > 0
                                 ? dpc::SuggestDeltaMinForK(result, params, args.k)
                                 : dpc::SuggestDeltaMinByGap(result, params);
    params.delta_min = suggested;
    dpc::FinalizeClusters(params, &result);
    std::printf("auto delta_min = %.6g (%s)\n", suggested,
                args.k > 0 ? "for requested k" : "largest decision-graph gap");
  }

  const auto summary = dpc::eval::Summarize(result);
  std::printf("%s on %lld points (d=%d): %s\n", std::string(algo.value()->name()).c_str(),
              static_cast<long long>(points.size()), points.dim(),
              dpc::eval::ToString(summary).c_str());
  std::printf("time: total %.3fs (build %.3f, rho %.3f, delta %.3f)\n",
              result.stats.total_seconds, result.stats.build_seconds,
              result.stats.rho_seconds, result.stats.delta_seconds);

  if (args.halo) {
    const dpc::HaloResult halo = dpc::ComputeHalo(points, result, params.d_cut);
    for (int64_t c = 0; c < result.num_clusters(); ++c) {
      std::printf("cluster %lld: halo %lld points (border density %.1f)\n",
                  static_cast<long long>(c),
                  static_cast<long long>(halo.halo_size[static_cast<size_t>(c)]),
                  halo.border_density[static_cast<size_t>(c)]);
    }
  }

  if (!args.output.empty()) {
    const dpc::Status s = dpc::data::SaveLabeledCsv(points, result.label, args.output);
    std::printf("labels -> %s (%s)\n", args.output.c_str(), s.ToString().c_str());
  }
  if (!args.decision_graph.empty()) {
    const dpc::Status s =
        dpc::WriteDecisionGraphCsv(dpc::BuildDecisionGraph(result), args.decision_graph);
    std::printf("decision graph -> %s (%s)\n", args.decision_graph.c_str(),
                s.ToString().c_str());
  }
  return 0;
}
