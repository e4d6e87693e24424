// dpc_perfbench — the repository's end-to-end benchmark.
//
//   dpc_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                 [--out DIR] [--tmp DIR]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics and write a Chrome trace-event
// file. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py builds this binary and forwards its arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/kernels.h"
#include "core/registry.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "parallel/lpt_scheduler.h"
#include "parallel/omp_utils.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Setups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Direct solves per algorithm behind serve-explore's solve_s metrics.
constexpr int kServeSolveRounds = 16;

struct BatchSetup {
  Dataset ds;
  double gen_seconds = 0.0;
  double seconds = 0.0;
  double counts[4] = {};  ///< grid cells, kd-tree bytes, grid bytes, LPT imbalance
};

/// Data generation, index build, and one untimed solve and labeling per
/// algorithm.
BatchSetup SetUpBatch(const WorkloadSpec& wl, uint64_t seed) {
  BatchSetup s;
  const Clock::time_point t0 = Clock::now();
  s.ds = MakeDataset(wl, seed);
  s.gen_seconds = SecondsSince(t0);
  const dpc::KdTree tree(s.ds.points);
  const dpc::UniformGrid grid(
      s.ds.points,
      s.ds.compute.d_cut / std::sqrt(static_cast<double>(s.ds.points.dim())));
  const int nproc = dpc::HardwareThreads();
  const dpc::ExecutionContext ctx(nproc);
  for (const AlgoSpec& a : kAlgos) {
    auto algo = std::move(dpc::MakeAlgorithmByName(a.registry)).value();
    dpc::LabelSolution(algo->Solve(s.ds.points, s.ds.compute, ctx),
                       s.ds.threshold);
  }
  s.seconds = SecondsSince(t0);
  s.counts[0] = static_cast<double>(grid.num_cells());
  s.counts[1] = static_cast<double>(tree.MemoryBytes());
  s.counts[2] = static_cast<double>(grid.MemoryBytes());
  s.counts[3] = dpc::LptSchedule(grid.CellCosts(), nproc).Imbalance();
  return s;
}

double OverheadPct(const SolveSamples& s) {
  double traced = 0.0, untraced = 0.0;
  for (int a = 0; a < kNumAlgos; ++a) {
    traced += Median(s.traced_wall[a]);
    untraced += Median(s.wall[a]);
  }
  return 100.0 * (traced / untraced - 1.0);
}

/// The end-to-end metrics every workload reports, except peak_rss_mb.
/// Latencies are in seconds.
void ReportEndToEnd(const SolveSamples& samples, double latency_p50,
                    double latency_p99, int64_t requests, double wall_seconds,
                    const std::vector<double>& setup_s, Report* report) {
  for (int a = 0; a < kNumAlgos; ++a) {
    report->Metric(std::string("solve_s.") + kAlgos[a].key,
                   Median(samples.wall[a]), "s",
                   static_cast<int64_t>(samples.wall[a].size()));
  }
  report->Metric("latency_p50_ms", latency_p50 * 1e3, "ms", requests);
  report->Metric("latency_p99_ms", latency_p99 * 1e3, "ms", requests);
  report->Metric("throughput_rps",
                 static_cast<double>(requests) / wall_seconds, "1/s", requests);
  report->Metric("setup_s", Median(setup_s), "s",
                 static_cast<int64_t>(setup_s.size()));
}

void RunBatch(const WorkloadSpec& wl, const Args& args,
              const std::shared_ptr<dpc::obs::Trace>& trace, Report* report) {
  std::vector<double> setup_s, gen_s;
  BatchSetup setup;
  for (int rep = 0; rep < (trace ? 1 : kSetupReps); ++rep) {
    BatchSetup s = SetUpBatch(wl, args.seed);
    setup_s.push_back(s.seconds);
    gen_s.push_back(s.gen_seconds);
    if (rep > 0) {
      static constexpr const char* kNames[4] = {
          "index.grid_cells (two setups)", "index.kdtree_bytes (two setups)",
          "index.grid_bytes (two setups)", "parallel.lpt_imbalance (two setups)"};
      for (int k = 0; k < 4; ++k) {
        report->SameCount(kNames[k], setup.counts[k], s.counts[k]);
      }
    }
    setup = std::move(s);
  }
  const Dataset& ds = setup.ds;
  CheckExAgainstScan(ds, report);

  SolveSamples samples;
  if (trace == nullptr) {
    const double wall = SolveLoop(ds, args.seconds, 1, nullptr, &samples, report);
    const dpc::obs::HistogramSnapshot requests = samples.requests.Snapshot();
    ReportEndToEnd(samples, requests.Percentile(50), requests.Percentile(99),
                   static_cast<int64_t>(requests.count), wall, setup_s, report);
    return;
  }
  SolveLoop(ds, args.seconds, 4, trace, &samples, report);
  report->Metric("data.gen_s", Median(gen_s), "s",
                 static_cast<int64_t>(gen_s.size()));
  ReportPhases(samples, report);
  ReportLayerProbes(ds, samples, args, trace.get(), report);
  const ServeOutcome serve =
      RunServeEpisode(ds, MakeServeProbePlan(), args.tmp_dir, trace, report);
  ReportServeLayers(serve, report);
  report->Metric("obs.trace_overhead_pct", OverheadPct(samples), "%");
}

void RunServe(const WorkloadSpec& wl, const Args& args,
              const std::shared_ptr<dpc::obs::Trace>& trace, Report* report) {
  const ServePlan plan = MakeServePlan(args.seconds);
  std::vector<double> setup_s, gen_s;
  Dataset ds;
  for (int rep = 0; rep < (trace ? 1 : kSetupReps); ++rep) {
    const Clock::time_point t0 = Clock::now();
    ds = MakeDataset(wl, args.seed);
    gen_s.push_back(SecondsSince(t0));
    const double server_s = TimeServeSetup(ds, plan, args.tmp_dir);
    setup_s.push_back(gen_s.back() + server_s);
  }
  CheckExAgainstScan(ds, report);

  SolveSamples samples;
  if (trace == nullptr) {
    const ServeOutcome o = RunServeEpisode(ds, plan, args.tmp_dir, nullptr, report);
    // Direct solves of the warm configs: the same solve_s metric the
    // batch workloads report, at this workload's size.
    SolveLoop(ds, 0.0, kServeSolveRounds, nullptr, &samples, report);
    ReportEndToEnd(samples, o.latency.Percentile(50), o.latency.Percentile(99),
                   o.requests, o.wall_seconds, setup_s, report);
    return;
  }
  // Traced: the same episode untraced, then traced on a fresh server; the
  // difference is the tracing overhead, and their work counts must match.
  const ServeOutcome plain = RunServeEpisode(ds, plan, args.tmp_dir, nullptr, report);
  const ServeOutcome traced = RunServeEpisode(ds, plan, args.tmp_dir, trace, report);
  report->SameCount("serve.recomputes (two episodes)",
                    static_cast<double>(plain.recomputes),
                    static_cast<double>(traced.recomputes));
  report->SameCount("store puts (two episodes)",
                    static_cast<double>(plain.store_puts),
                    static_cast<double>(traced.store_puts));
  // The short probe at one pool thread and at nproc: same work counts.
  ServePlan probe = MakeServeProbePlan();
  const ServeOutcome wide = RunServeEpisode(ds, probe, args.tmp_dir, nullptr, report);
  probe.pool_threads = 1;
  const ServeOutcome narrow = RunServeEpisode(ds, probe, args.tmp_dir, nullptr, report);
  report->SameCount("serve.recomputes (1 vs nproc pool threads)",
                    static_cast<double>(narrow.recomputes),
                    static_cast<double>(wide.recomputes));
  report->SameCount("store puts (1 vs nproc pool threads)",
                    static_cast<double>(narrow.store_puts),
                    static_cast<double>(wide.store_puts));

  SolveLoop(ds, 0.0, 4, trace, &samples, report);
  report->Metric("data.gen_s", Median(gen_s), "s",
                 static_cast<int64_t>(gen_s.size()));
  ReportPhases(samples, report);
  ReportLayerProbes(ds, samples, args, trace.get(), report);
  ReportServeLayers(traced, report);
  report->Metric("obs.trace_overhead_pct",
                 100.0 * (traced.wall_seconds / plain.wall_seconds - 1.0), "%");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--tmp") {
      args->tmp_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds >= 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  const WorkloadSpec* wl = nullptr;
  if (!ParseArgs(argc, argv, &args) ||
      (wl = FindWorkload(args.workload)) == nullptr) {
    std::fprintf(stderr,
                 "usage: dpc_perfbench --workload <%s> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out DIR] [--tmp DIR]\n",
                 WorkloadNames().c_str());
    return 2;
  }

  Report report;
  const dpc::data::RealDatasetSpec& spec =
      dpc::data::RealDatasetSpecByName(wl->dataset);
  const int nproc = dpc::HardwareThreads();
  report.Stamp("workload", wl->name);
  report.Stamp("dataset", spec.name);
  report.Stamp("seed", static_cast<double>(args.seed != 0 ? args.seed : spec.seed));
  report.Stamp("n", static_cast<double>(wl->n));
  report.Stamp("dim", spec.dim);
  report.Stamp("nproc", nproc);
  report.Stamp("threads", nproc);
  report.Stamp("kernel_dispatch", dpc::kernels::DispatchName());
  report.Stamp("kernel_tier", dpc::kernels::ActiveTierName());
  report.Stamp("trace", args.trace ? 1.0 : 0.0);
  report.Stamp("seconds", args.seconds);

  std::shared_ptr<dpc::obs::Trace> trace =
      args.trace ? std::make_shared<dpc::obs::Trace>() : nullptr;
  if (wl->serving) {
    RunServe(*wl, args, trace, &report);
  } else {
    RunBatch(*wl, args, trace, &report);
  }

  const double error_rate =
      report.attempted() > 0 ? static_cast<double>(report.failed()) /
                                   static_cast<double>(report.attempted())
                             : 0.0;
  if (trace != nullptr) {
    report.Metric("error_rate", error_rate, "ratio");
  } else {
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("error_rate %.6g (%llu failed of %llu attempted)\n", error_rate,
                static_cast<unsigned long long>(report.failed()),
                static_cast<unsigned long long>(report.attempted()));
  }

  std::map<std::string, double> self_s;
  if (trace != nullptr) {
    self_s = SpanSelfSeconds(trace->Snapshot());
    std::printf("span self time (s):\n");
    for (const auto& [name, seconds] : self_s) {
      std::printf("  %-40s %12.6f\n", name.c_str(), seconds);
    }
  }
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + wl->name + "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-trace" : "");
    bool written = report.WriteDetail(stem + ".json", wl->name, self_s);
    if (trace != nullptr) {
      written = WriteText(stem + ".trace.json", trace->ToChromeJson()) && written;
    }
    if (!written) std::fprintf(stderr, "could not write %s.*\n", stem.c_str());
  }
  std::printf("%s\n", report.ResultLine().c_str());
  return 0;
}
