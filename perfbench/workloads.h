// The benchmark's workloads and the layer probes they share.
//
//   solve-airline    batch: Ex / Approx / S-Approx Solve on the Airline
//                    stand-in (dim 3, n = 400,000)
//   solve-household  batch: the same on the Household stand-in (dim 7,
//                    n = 100,000); run by hand, not in BENCHMARK.json
//   serve-explore    an in-process ClusterServer with a persistent store,
//                    two closed-loop clients replaying a seeded
//                    decision-graph exploration sequence against the
//                    PAMAP2 stand-in (dim 4, n = 50,000)
//
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// report the per-layer metrics. perfbench/README.md maps each layer
// metric to the end-to-end metric it should move.
#ifndef DPC_PERFBENCH_WORKLOADS_H_
#define DPC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dpc.h"
#include "data/real_like.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  const char* dataset;  ///< data/real_like.h stand-in name
  dpc::PointId n;
  bool serving;
};

/// Null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::string WorkloadNames();

/// The three paper algorithms, in report order: metric key + registry name.
struct AlgoSpec {
  const char* key;
  const char* registry;
};
inline constexpr AlgoSpec kAlgos[] = {
    {"ex", "ex-dpc"}, {"approx", "approx-dpc"}, {"sapprox", "s-approx-dpc"}};
inline constexpr int kNumAlgos = 3;

/// The workload's generated input and the paper-default parameters
/// (d_cut from the stand-in spec, rho_min 10, delta_min 5 * d_cut).
struct Dataset {
  const dpc::data::RealDatasetSpec* spec = nullptr;
  uint64_t seed = 0;
  dpc::PointSet points{1};
  dpc::ComputeParams compute;
  dpc::ThresholdSpec threshold;
};

/// Generates the workload's points from the seed (0 = the spec's seed).
Dataset MakeDataset(const WorkloadSpec& workload, uint64_t seed);

/// Solve wall times and phase times per algorithm, from one loop.
struct SolveSamples {
  std::vector<double> wall[kNumAlgos];  ///< untraced Solve wall, nproc threads
  std::vector<double> traced_wall[kNumAlgos];
  /// Untraced threshold requests: LabelSolution of each fresh solution,
  /// at the paper defaults and at seeded thresholds.
  dpc::obs::Histogram requests;
  /// Phase seconds of the traced solves: build, rho, delta, stamp
  /// (= Solve wall minus the three phases).
  std::vector<double> phase[kNumAlgos][4];
  /// The first solution of each algorithm; later solves must label
  /// identically.
  std::shared_ptr<const dpc::DpcSolution> reference[kNumAlgos];
  dpc::Labeling reference_labels[kNumAlgos];
};

/// Runs after setup. Each round solves with every algorithm at nproc
/// threads, labels each solution at the paper defaults and checks it,
/// then labels it at 15 seeded thresholds.
/// Rounds repeat while the next one would end within half a round of
/// `seconds`, and at least `min_rounds` times. With `trace`, odd rounds
/// attach the trace so traced and untraced solves interleave. Returns the
/// loop's wall seconds.
double SolveLoop(const Dataset& ds, double seconds, int min_rounds,
                 const std::shared_ptr<dpc::obs::Trace>& trace,
                 SolveSamples* samples, Report* report);

/// Setup-time check: Ex-DPC equals the quadratic ScanDpc on a seeded
/// ~10k subsample.
void CheckExAgainstScan(const Dataset& ds, Report* report);

/// Per-layer probes shared by every workload (traced runs only):
/// kernels, index, core phases and peak search, parallel, store.
void ReportLayerProbes(const Dataset& ds, const SolveSamples& samples,
                       const Args& args, dpc::obs::Trace* trace,
                       Report* report);

/// The core.<algo>.<phase> metrics of a traced loop and the Table 6
/// shape lines.
void ReportPhases(const SolveSamples& samples, Report* report);

// --- serving -----------------------------------------------------------

/// One closed-loop serving episode's configuration.
struct ServePlan {
  int pool_threads = 0;
  /// Memory tier budget, in multiples of one solution's serialized size.
  double memory_budget_solutions = 4.5;
  /// Algorithms whose d_cut-default configs are computed during setup
  /// (the warm configs rethreshold/graph requests read).
  std::vector<std::string> warm_algos;
  /// Extra cluster-only configs: every algorithm in cluster_algos at each
  /// d_cut factor (relative to the default d_cut).
  std::vector<std::string> cluster_algos;
  std::vector<double> cluster_dcut_factors;
  int64_t requests = 0;
  /// kCluster requests carrying a d_cut no earlier request used.
  int64_t never_seen = 0;
  int clients = 2;
  /// Responses kept and re-verified against a direct Solve afterwards.
  int verify_samples = 0;
};

/// serve-explore's plan for a measurement length of `seconds`.
ServePlan MakeServePlan(double seconds);
/// The short serving probe of the traced runs: one warm config, a memory
/// tier of 1.5 solutions, 100 requests and one new solution, which evicts
/// (demotes) the warm one so later reads promote it back.
ServePlan MakeServeProbePlan();

struct ServeOutcome {
  double wall_seconds = 0.0;
  int64_t requests = 0;
  int64_t failed = 0;
  dpc::obs::HistogramSnapshot latency;  ///< all kinds, submit -> response
  dpc::obs::HistogramSnapshot rethreshold, graph, cluster;
  dpc::obs::HistogramSnapshot queue;        ///< kCluster queue wait
  dpc::obs::HistogramSnapshot run;          ///< computed responses' run time
  dpc::obs::HistogramSnapshot hit_service;  ///< kCluster hits: latency - queue
  uint64_t recomputes = 0;   ///< Solve executions during the episode
  uint64_t store_puts = 0;   ///< store writes during the episode
  uint64_t expected_new = 0; ///< distinct never-computed configs requested
  uint64_t completed = 0, cache_hits = 0, peak_concurrency = 0;
  uint64_t leases = 0, lease_width_total = 0;
  uint64_t warm_misses = 0, promotions = 0, demotions = 0, store_bytes = 0;
  double reopen_seconds = 0.0;  ///< reopening the episode's store log
};

/// Starts a server (store under `tmp_dir`), registers the dataset, fills
/// the warm configs, then replays the plan's seeded request sequence
/// from closed-loop clients. Checks every response status, the
/// deterministic work counts, the store's replay of its log, and
/// (verify_samples) a seeded sample of responses against LabelSolution
/// of a direct Solve.
ServeOutcome RunServeEpisode(const Dataset& ds, const ServePlan& plan,
                             const std::string& tmp_dir,
                             std::shared_ptr<dpc::obs::Trace> trace,
                             Report* report);

/// Setup of the serving workload alone (server start, registration,
/// warm fill), timed; the server is discarded. Used for setup_s.
double TimeServeSetup(const Dataset& ds, const ServePlan& plan,
                      const std::string& tmp_dir);

/// The per-layer serve.* / store.* metrics of an episode.
void ReportServeLayers(const ServeOutcome& outcome, Report* report);

}  // namespace perfbench

#endif  // DPC_PERFBENCH_WORKLOADS_H_
