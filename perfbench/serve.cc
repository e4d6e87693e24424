// The serving side of the benchmark: an in-process ClusterServer with a
// persistent store, replaying a seeded decision-graph exploration
// sequence from closed-loop clients.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "core/decision_graph.h"
#include "core/registry.h"
#include "core/rng.h"
#include "parallel/omp_utils.h"
#include "serve/server.h"
#include "store/solution_format.h"
#include "store/solution_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dpc::serve::ClusterRequest;
using dpc::serve::ClusterResponse;
using dpc::serve::ClusterServer;
using dpc::serve::RequestKind;

constexpr const char* kDatasetHandle = "bench";
/// serve-explore's fixed-length sequence has this many requests per
/// second of --seconds; on a 4-core host a run lasts about --seconds.
constexpr double kServeRequestsPerSecond = 200.0;
/// One kCluster request in this many requests names a never-seen d_cut.
/// With the first touches of the cluster-only configs, about 2% of
/// requests compute, so latency_p99_ms lands inside the miss tail.
constexpr int64_t kRequestsPerNewConfig = 60;

/// Never-seen d_cuts lie in (1, 1 + kFreshDcutSpan) * the default d_cut.
constexpr double kFreshDcutSpan = 0.44;

struct Config {
  std::string algorithm;
  double d_cut = 0.0;
};

struct Planned {
  RequestKind kind = RequestKind::kRethreshold;
  size_t config = 0;
  dpc::ThresholdSpec threshold;
  int top_k = 10;
};

/// The seeded request sequence. Exact kind counts (then shuffled), so
/// every seed does the same amount of each kind of work: half
/// rethreshold and three tenths graph, both over the warm configs, and
/// one fifth cluster over every config, `never_seen` of which name a
/// fresh d_cut.
struct Sequence {
  std::vector<Config> configs;  ///< warm configs first
  size_t warm = 0;
  std::vector<Planned> requests;
  uint64_t expected_new = 0;  ///< distinct configs first computed in the loop
};

Sequence BuildSequence(const Dataset& ds, const ServePlan& plan) {
  Sequence seq;
  const double d_cut = ds.compute.d_cut;
  for (const std::string& algo : plan.warm_algos) {
    seq.configs.push_back({algo, d_cut});
  }
  seq.warm = seq.configs.size();
  for (const std::string& algo : plan.cluster_algos) {
    for (const double f : plan.cluster_dcut_factors) {
      seq.configs.push_back({algo, d_cut * f});
    }
  }
  const size_t reusable = seq.configs.size();

  const int64_t total = plan.requests;
  const int64_t clusters = std::max(total / 5, plan.never_seen);
  const int64_t graphs = std::min(total - clusters, total * 3 / 10);
  std::vector<RequestKind> kinds;
  kinds.insert(kinds.end(), static_cast<size_t>(clusters), RequestKind::kCluster);
  kinds.insert(kinds.end(), static_cast<size_t>(graphs), RequestKind::kGraph);
  kinds.resize(static_cast<size_t>(total), RequestKind::kRethreshold);
  dpc::Rng rng(ds.seed * 0xd1b54a32d192ed03ULL + 29);
  for (size_t k = kinds.size(); k > 1; --k) {
    std::swap(kinds[k - 1], kinds[rng.NextBelow(k)]);
  }

  // 60 thresholds per config, more than a solution's label memo holds
  // (16), so every resident solution's memo fills early in the run and
  // the label layer keeps running.
  static constexpr double kRhoMin[] = {0.0, 5.0, 10.0, 15.0, 20.0, 30.0};
  static constexpr double kDeltaFactor[] = {1.5, 2.0, 3.0, 4.0, 5.0,
                                            6.0, 8.0, 10.0, 12.0, 15.0};
  static constexpr int kTopK[] = {10, 20, 50};
  const std::vector<std::string>& new_algos =
      plan.cluster_algos.empty() ? plan.warm_algos : plan.cluster_algos;
  const int64_t stride =
      plan.never_seen > 0 ? std::max<int64_t>(1, clusters / plan.never_seen) : 0;
  int64_t cluster_index = 0;
  int64_t made = 0;
  std::set<size_t> touched;
  for (const RequestKind kind : kinds) {
    Planned p;
    p.kind = kind;
    p.threshold.rho_min = kRhoMin[rng.NextBelow(6)];
    p.threshold.delta_min = d_cut * kDeltaFactor[rng.NextBelow(10)];
    p.top_k = kTopK[rng.NextBelow(3)];
    if (kind != RequestKind::kCluster) {
      p.config = rng.NextBelow(seq.warm);
    } else if (stride > 0 && made < plan.never_seen &&
               cluster_index++ % stride == 0) {
      // A d_cut no other request uses: every run computes and stores
      // exactly never_seen new solutions. The fresh d_cuts spread over
      // (1, 1.45) * d_cut whatever their count, below the smallest
      // delta_min (1.5 * d_cut), which must exceed d_cut.
      const double step =
          kFreshDcutSpan / static_cast<double>(plan.never_seen + 1);
      seq.configs.push_back(
          {new_algos[static_cast<size_t>(made) % new_algos.size()],
           d_cut * (1.0 + step * static_cast<double>(made + 1) + 0.0005)});
      p.config = seq.configs.size() - 1;
      ++made;
    } else {
      p.config = rng.NextBelow(reusable);
    }
    if (p.config >= seq.warm) touched.insert(p.config);
    seq.requests.push_back(p);
  }
  seq.expected_new = touched.size();
  return seq;
}

ClusterRequest MakeRequest(const Dataset& ds, const Config& config,
                           const Planned& p) {
  ClusterRequest request;
  request.kind = p.kind;
  request.dataset = kDatasetHandle;
  request.algorithm = config.algorithm;
  request.params = dpc::ComposeParams(
      dpc::ComputeParams{config.d_cut, ds.compute.epsilon}, p.threshold);
  request.graph_top_k = p.top_k;
  return request;
}

/// Serialized size of one workload-sized solution: the unit of the
/// memory-tier budget.
size_t SolutionBytes(dpc::PointId n) {
  dpc::DpcSolution shape;
  shape.algorithm = "Approx-DPC";
  shape.rho.resize(static_cast<size_t>(n));
  shape.delta.resize(static_cast<size_t>(n));
  shape.dependency.resize(static_cast<size_t>(n));
  shape.density_order.resize(static_cast<size_t>(n));
  return dpc::store::SerializedSolutionBytes(shape);
}

std::string FreshDir(const std::string& tmp_dir) {
  static std::atomic<int> counter{0};
  const std::string dir = tmp_dir + "/serve-" + std::to_string(counter++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Server start, dataset registration and the warm-config fill: the
/// serving workload's setup. Returns null when a warm fill fails.
std::unique_ptr<ClusterServer> StartServer(const Dataset& ds,
                                           const ServePlan& plan,
                                           const Sequence& seq,
                                           const std::string& store_path) {
  dpc::serve::ServerOptions options;
  options.pool_threads = plan.pool_threads;
  options.memory_budget_bytes = static_cast<size_t>(
      plan.memory_budget_solutions *
      static_cast<double>(SolutionBytes(ds.points.size())));
  options.store_path = store_path;
  auto server = std::make_unique<ClusterServer>(options);
  server->datasets().Register(kDatasetHandle, ds.points);
  for (size_t c = 0; c < seq.warm; ++c) {
    Planned fill;
    fill.kind = RequestKind::kCluster;
    fill.threshold = ds.threshold;
    if (!server->Submit(MakeRequest(ds, seq.configs[c], fill)).get().status.ok()) {
      return nullptr;
    }
  }
  return server;
}

double Ms(const dpc::obs::HistogramSnapshot& h, double q) {
  return h.Percentile(q) * 1e3;
}

/// A response retained for re-verification.
struct Kept {
  size_t index = 0;
  dpc::Labeling labeling;
  std::vector<dpc::GammaEntry> graph;
};

}  // namespace

ServePlan MakeServePlan(double seconds) {
  ServePlan plan;
  plan.pool_threads = dpc::HardwareThreads();
  plan.warm_algos = {"approx-dpc", "ex-dpc", "s-approx-dpc"};
  plan.cluster_algos = plan.warm_algos;
  plan.cluster_dcut_factors = {0.8, 0.9, 1.1, 1.2};
  plan.memory_budget_solutions = 4.5;
  plan.requests = std::max<int64_t>(
      400, static_cast<int64_t>(kServeRequestsPerSecond * seconds));
  plan.never_seen = std::max<int64_t>(1, plan.requests / kRequestsPerNewConfig);
  plan.verify_samples = 24;
  return plan;
}

ServePlan MakeServeProbePlan() {
  ServePlan plan;
  plan.pool_threads = dpc::HardwareThreads();
  plan.warm_algos = {"approx-dpc"};
  plan.memory_budget_solutions = 1.5;
  plan.requests = 100;
  plan.never_seen = 1;
  return plan;
}

double TimeServeSetup(const Dataset& ds, const ServePlan& plan,
                      const std::string& tmp_dir) {
  const Sequence seq = BuildSequence(ds, plan);
  const std::string dir = FreshDir(tmp_dir);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<ClusterServer> server =
      StartServer(ds, plan, seq, dir + "/solutions.log");
  const double seconds = SecondsSince(t0);
  server.reset();
  std::filesystem::remove_all(dir);
  return seconds;
}

ServeOutcome RunServeEpisode(const Dataset& ds, const ServePlan& plan,
                             const std::string& tmp_dir,
                             std::shared_ptr<dpc::obs::Trace> trace,
                             Report* report) {
  ServeOutcome out;
  const Sequence seq = BuildSequence(ds, plan);
  const std::string dir = FreshDir(tmp_dir);
  const std::string store_path = dir + "/solutions.log";
  std::unique_ptr<ClusterServer> server = StartServer(ds, plan, seq, store_path);
  if (!report->Check(server != nullptr && server->store() != nullptr,
                     "server starts with a store and fills its warm configs")) {
    return out;
  }
  server->set_trace(trace);
  const dpc::serve::ServerStats before = server->stats();
  const uint64_t puts_before = server->store()->stats().puts;

  // Seeded responses to re-verify after the loop.
  std::set<size_t> verify;
  dpc::Rng pick(ds.seed * 0xa0761d6478bd642fULL + 31);
  while (verify.size() < std::min<size_t>(static_cast<size_t>(plan.verify_samples),
                                          seq.requests.size())) {
    verify.insert(pick.NextBelow(seq.requests.size()));
  }

  dpc::obs::Histogram latency, rethreshold, graph, cluster, queue, run,
      hit_service;
  std::atomic<int64_t> failed{0};
  std::vector<std::vector<Kept>> kept(static_cast<size_t>(plan.clients));
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < plan.clients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < seq.requests.size();
           i += static_cast<size_t>(plan.clients)) {
        const Planned& p = seq.requests[i];
        ClusterRequest request = MakeRequest(ds, seq.configs[p.config], p);
        const Clock::time_point t0 = Clock::now();
        const ClusterResponse response = server->Submit(std::move(request)).get();
        const double seconds = SecondsSince(t0);
        latency.Observe(seconds);
        if (p.kind == RequestKind::kRethreshold) rethreshold.Observe(seconds);
        if (p.kind == RequestKind::kGraph) graph.Observe(seconds);
        if (p.kind == RequestKind::kCluster) {
          cluster.Observe(seconds);
          queue.Observe(response.queue_seconds);
          if (response.cache_hit) {
            hit_service.Observe(seconds - response.queue_seconds);
          }
        }
        if (response.run_seconds > 0.0) run.Observe(response.run_seconds);
        if (!response.status.ok()) {
          failed.fetch_add(1);
          std::printf("request %zu failed: %s\n", i,
                      response.status.ToString().c_str());
          continue;
        }
        if (verify.count(i) != 0) {
          Kept k;
          k.index = i;
          if (response.result != nullptr) {
            k.labeling.label = response.result->label;
            k.labeling.centers = response.result->centers;
          }
          k.graph = response.graph;
          kept[static_cast<size_t>(c)].push_back(std::move(k));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  out.wall_seconds = SecondsSince(start);
  server->set_trace(nullptr);

  const dpc::serve::ServerStats after = server->stats();
  out.requests = static_cast<int64_t>(seq.requests.size());
  out.failed = failed.load();
  out.latency = latency.Snapshot();
  out.rethreshold = rethreshold.Snapshot();
  out.graph = graph.Snapshot();
  out.cluster = cluster.Snapshot();
  out.queue = queue.Snapshot();
  out.run = run.Snapshot();
  out.hit_service = hit_service.Snapshot();
  out.recomputes = after.recomputes - before.recomputes;
  out.store_puts = server->store()->stats().puts - puts_before;
  out.expected_new = seq.expected_new;
  out.completed = after.completed - before.completed;
  out.cache_hits = after.cache_hits - before.cache_hits;
  out.peak_concurrency = after.peak_concurrency;
  out.leases = after.leases_granted - before.leases_granted;
  out.lease_width_total = after.lease_width_total - before.lease_width_total;
  out.warm_misses = after.warm_misses - before.warm_misses;
  out.promotions = after.promotions - before.promotions;
  out.demotions = after.demotions - before.demotions;
  out.store_bytes = after.store_bytes;
  server.reset();  // shuts down and closes the log

  {
    // A restart's cost: reopen the log and replay its directory.
    const Clock::time_point t0 = Clock::now();
    auto reopened = dpc::store::SolutionStore::Open(store_path);
    out.reopen_seconds = SecondsSince(t0);
    report->Check(reopened.ok() && reopened.value()->stats().live_solutions ==
                                       seq.warm + seq.expected_new,
                  "store log replays every solution the episode wrote");
  }
  report->Operations(static_cast<uint64_t>(out.requests),
                     static_cast<uint64_t>(out.failed));
  report->SameCount("serve.recomputes (episode vs planned new configs)",
                    static_cast<double>(out.recomputes),
                    static_cast<double>(out.expected_new));
  report->SameCount("store puts (episode vs planned new configs)",
                    static_cast<double>(out.store_puts),
                    static_cast<double>(out.expected_new));

  // Re-verify the kept responses against LabelSolution / TopGammaPoints
  // of a direct Solve of the same configuration.
  std::map<size_t, dpc::DpcSolution> direct;
  const dpc::ExecutionContext ctx(dpc::HardwareThreads());
  size_t verified = 0;
  for (const std::vector<Kept>& list : kept) {
    for (const Kept& k : list) {
      const Planned& p = seq.requests[k.index];
      auto it = direct.find(p.config);
      if (it == direct.end()) {
        const Config& config = seq.configs[p.config];
        auto algo = std::move(dpc::MakeAlgorithmByName(config.algorithm)).value();
        it = direct
                 .emplace(p.config,
                          algo->Solve(ds.points,
                                      dpc::ComputeParams{config.d_cut,
                                                         ds.compute.epsilon},
                                      ctx))
                 .first;
      }
      bool same = false;
      if (p.kind == RequestKind::kGraph) {
        const std::vector<dpc::GammaEntry> want =
            dpc::TopGammaPoints(it->second.rho, it->second.delta, p.top_k);
        same = want.size() == k.graph.size();
        for (size_t j = 0; same && j < want.size(); ++j) {
          same = want[j].id == k.graph[j].id && want[j].gamma == k.graph[j].gamma;
        }
      } else {
        const dpc::Labeling want = dpc::LabelSolution(it->second, p.threshold);
        same = want.label == k.labeling.label && want.centers == k.labeling.centers;
      }
      report->Check(same, "response " + std::to_string(k.index) + " (" +
                              dpc::serve::ToString(p.kind) +
                              ") matches a direct Solve");
      ++verified;
    }
  }
  std::printf("serve episode: %lld requests in %.3f s, %zu re-verified, "
              "%llu recomputes, %llu failed\n",
              static_cast<long long>(out.requests), out.wall_seconds, verified,
              static_cast<unsigned long long>(out.recomputes),
              static_cast<unsigned long long>(out.failed));
  std::filesystem::remove_all(dir);
  return out;
}

void ReportServeLayers(const ServeOutcome& o, Report* report) {
  report->Metric("serve.queue_ms.p50", Ms(o.queue, 50), "ms",
                 static_cast<int64_t>(o.queue.count));
  report->Metric("serve.queue_ms.p99", Ms(o.queue, 99), "ms",
                 static_cast<int64_t>(o.queue.count));
  report->Metric("serve.run_ms.p50", Ms(o.run, 50), "ms",
                 static_cast<int64_t>(o.run.count));
  report->Metric("serve.hit_service_ms.p50", Ms(o.hit_service, 50), "ms",
                 static_cast<int64_t>(o.hit_service.count));
  report->Metric("serve.rethreshold_ms.p50", Ms(o.rethreshold, 50), "ms",
                 static_cast<int64_t>(o.rethreshold.count));
  report->Metric("serve.graph_ms.p50", Ms(o.graph, 50), "ms",
                 static_cast<int64_t>(o.graph.count));
  report->Metric("serve.cluster_ms.p99", Ms(o.cluster, 99), "ms",
                 static_cast<int64_t>(o.cluster.count));
  report->Metric("serve.hit_ratio",
                 o.completed > 0 ? static_cast<double>(o.cache_hits) /
                                       static_cast<double>(o.completed)
                                 : 0.0,
                 "ratio");
  report->Metric("serve.recomputes", static_cast<double>(o.recomputes), "count");
  report->Metric("serve.peak_concurrency",
                 static_cast<double>(o.peak_concurrency), "count");
  report->Metric("serve.lease_width_mean",
                 o.leases > 0 ? static_cast<double>(o.lease_width_total) /
                                    static_cast<double>(o.leases)
                              : 0.0,
                 "threads");
  report->Metric("store.warm_misses", static_cast<double>(o.warm_misses), "count");
  report->Metric("store.promotions", static_cast<double>(o.promotions), "count");
  report->Metric("store.demotions", static_cast<double>(o.demotions), "count");
  report->Metric("store.bytes", static_cast<double>(o.store_bytes), "bytes");
  report->Metric("store.reopen_s", o.reopen_seconds, "s");
}

}  // namespace perfbench
