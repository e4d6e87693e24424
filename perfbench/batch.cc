// The batch side of the benchmark: dataset generation, the timed solve
// loop, and the setup-time ScanDpc cross-check.
#include <cstdio>
#include <iterator>

#include "baselines/scan_dpc.h"
#include "core/ex_dpc.h"
#include "core/registry.h"
#include "core/rng.h"
#include "parallel/omp_utils.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr WorkloadSpec kWorkloads[] = {
    {"solve-airline", "Airline", 400000, false},
    {"solve-household", "Household", 100000, false},
    {"serve-explore", "PAMAP2", 50000, true},
};

/// Threshold requests per solve: one at the paper defaults, the rest from
/// the seeded grid below (serve-explore's rethreshold grid).
constexpr int kRequestsPerSolve = 16;
constexpr double kRhoMin[] = {0.0, 5.0, 10.0, 15.0, 20.0, 30.0};
constexpr double kDeltaFactor[] = {1.5, 2.0, 3.0, 4.0, 5.0,
                                   6.0, 8.0, 10.0, 12.0, 15.0};

// Span names must outlive the trace: string literals, one per algorithm.
constexpr const char* kSolveSpan[kNumAlgos] = {
    "bench/solve.ex", "bench/solve.approx", "bench/solve.sapprox"};

std::unique_ptr<dpc::DpcAlgorithm> MakeAlgorithm(const char* registry_name) {
  return std::move(dpc::MakeAlgorithmByName(registry_name)).value();
}

bool SameLabeling(const dpc::Labeling& a, const dpc::Labeling& b) {
  return a.label == b.label && a.centers == b.centers;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& w : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += w.name;
  }
  return names;
}

Dataset MakeDataset(const WorkloadSpec& workload, uint64_t seed) {
  Dataset ds;
  ds.spec = &dpc::data::RealDatasetSpecByName(workload.dataset);
  ds.seed = seed != 0 ? seed : ds.spec->seed;
  ds.points = dpc::data::MakeRealLike(*ds.spec, workload.n, ds.seed);
  ds.compute = dpc::ComputeParams{ds.spec->default_d_cut, 1.0};
  ds.threshold.rho_min = 10.0;
  ds.threshold.delta_min = 5.0 * ds.spec->default_d_cut;
  return ds;
}

double SolveLoop(const Dataset& ds, double seconds, int min_rounds,
                 const std::shared_ptr<dpc::obs::Trace>& trace,
                 SolveSamples* samples, Report* report) {
  const dpc::ExecutionContext ctx(dpc::HardwareThreads());
  std::unique_ptr<dpc::DpcAlgorithm> algos[kNumAlgos];
  for (int a = 0; a < kNumAlgos; ++a) algos[a] = MakeAlgorithm(kAlgos[a].registry);

  dpc::Rng rng(ds.seed * 0x9e3779b97f4a7c15ULL + 41);
  uint64_t solves = 0;
  uint64_t explored_requests = 0;
  uint64_t failed = 0;
  const Clock::time_point start = Clock::now();
  // A round starts only while it can end within half a round of
  // `seconds`, so the loop's length stays near `seconds` on average.
  const auto another_round = [&](int round) {
    if (round < min_rounds) return true;
    const double elapsed = SecondsSince(start);
    return elapsed + 0.5 * elapsed / round < seconds;
  };
  for (int round = 0; another_round(round); ++round) {
    const bool traced = trace != nullptr && round % 2 == 1;
    for (int a = 0; a < kNumAlgos; ++a) {
      dpc::obs::ScopedSpan span(traced ? trace.get() : nullptr, kSolveSpan[a]);
      const dpc::ExecutionContext run_ctx =
          traced ? ctx.WithTrace(trace, span.id()) : ctx;
      const Clock::time_point t0 = Clock::now();
      auto solution = std::make_shared<const dpc::DpcSolution>(
          algos[a]->Solve(ds.points, ds.compute, run_ctx));
      const double wall = SecondsSince(t0);
      span.End();
      // The user's first request labels at the paper defaults; the rest
      // explore seeded thresholds of the same solution.
      Clock::time_point r0 = Clock::now();
      dpc::Labeling labeling = dpc::LabelSolution(*solution, ds.threshold);
      if (!traced) samples->requests.Observe(SecondsSince(r0));
      for (int q = 1; q < kRequestsPerSolve; ++q) {
        dpc::ThresholdSpec threshold;
        threshold.rho_min = kRhoMin[rng.NextBelow(std::size(kRhoMin))];
        threshold.delta_min = ds.compute.d_cut *
                              kDeltaFactor[rng.NextBelow(std::size(kDeltaFactor))];
        r0 = Clock::now();
        const dpc::Labeling explored = dpc::LabelSolution(*solution, threshold);
        if (!traced) samples->requests.Observe(SecondsSince(r0));
        ++explored_requests;
        if (explored.label.size() != static_cast<size_t>(ds.points.size())) {
          ++failed;
        }
      }
      ++solves;
      if (solution->interrupted()) ++failed;

      if (traced) {
        samples->traced_wall[a].push_back(wall);
        const dpc::DpcStats& st = solution->stats;
        samples->phase[a][0].push_back(st.build_seconds);
        samples->phase[a][1].push_back(st.rho_seconds);
        samples->phase[a][2].push_back(st.delta_seconds);
        samples->phase[a][3].push_back(
            wall - st.build_seconds - st.rho_seconds - st.delta_seconds);
      } else {
        samples->wall[a].push_back(wall);
      }

      if (samples->reference[a] == nullptr) {
        samples->reference[a] = solution;
        samples->reference_labels[a] = std::move(labeling);
      } else {
        report->Check(SameLabeling(labeling, samples->reference_labels[a]),
                      std::string(kAlgos[a].key) + " labels repeat bit-identically");
      }
      if (a > 0) {
        report->Check(samples->reference_labels[a].centers ==
                          samples->reference_labels[0].centers,
                      std::string(kAlgos[a].key) + " centers equal Ex-DPC's");
      }
    }
  }
  report->Operations(solves + explored_requests, failed);
  return SecondsSince(start);
}

void CheckExAgainstScan(const Dataset& ds, Report* report) {
  const double fraction =
      std::min(1.0, 10000.0 / static_cast<double>(ds.points.size()));
  const dpc::PointSet sub = ds.points.Sample(fraction, ds.seed + 1);
  const dpc::ExecutionContext ctx(dpc::HardwareThreads());
  const dpc::DpcSolution ex = dpc::ExDpc().Solve(sub, ds.compute, ctx);
  const dpc::DpcSolution scan = dpc::ScanDpc().Solve(sub, ds.compute, ctx);
  report->Check(ex.rho == scan.rho && ex.delta == scan.delta &&
                    ex.dependency == scan.dependency,
                "Ex-DPC equals ScanDpc on a " + std::to_string(sub.size()) +
                    "-point subsample");
}

void ReportPhases(const SolveSamples& samples, Report* report) {
  static constexpr const char* kPhase[4] = {"build_s", "rho_s", "delta_s",
                                            "stamp_s"};
  double med[kNumAlgos][4] = {};
  for (int a = 0; a < kNumAlgos; ++a) {
    for (int p = 0; p < 4; ++p) {
      med[a][p] = Median(samples.phase[a][p]);
      report->Metric(std::string("core.") + kAlgos[a].key + "." + kPhase[p],
                     med[a][p], "s",
                     static_cast<int64_t>(samples.phase[a][p].size()));
    }
  }
  // Table 6 of the paper: Approx-DPC's rho phase beats Ex-DPC's, and the
  // grid algorithms' delta phases are "tiny". The roadmap records Approx's
  // delta as an open gap, so a miss there reads GAP, not FAIL.
  char line[256];
  const auto shape = [&](bool holds, bool known_gap, const char* what,
                         double lhs, double rhs) {
    std::snprintf(line, sizeof(line), "Table 6: %s (%.4f s vs %.4f s)", what,
                  lhs, rhs);
    report->Shape(holds ? "PASS" : (known_gap ? "GAP" : "FAIL"), line);
  };
  shape(med[1][1] < med[0][1], false, "approx rho_s < ex rho_s", med[1][1],
        med[0][1]);
  shape(med[1][2] <= med[0][2], true, "approx delta_s <= ex delta_s",
        med[1][2], med[0][2]);
  shape(med[2][2] < med[0][2], false, "sapprox delta_s < ex delta_s",
        med[2][2], med[0][2]);
}

}  // namespace perfbench
