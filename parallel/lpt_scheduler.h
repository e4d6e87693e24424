// Cost-based cell -> thread partitioning (paper §4.5). The grid-based
// algorithms know, before a phase starts, roughly how much work each cell
// holds (index/grid.h's CellCosts hook); handing out whole cells
// longest-processing-time-first (LPT) keeps every thread's total cost
// near the mean, where naive strategies leave one thread holding the
// densest cells. LPT is the classic 4/3-approximation of the optimal
// makespan. HashSchedule is the strawman the paper compares against
// (LSH-DDP's id-modulo-thread partitioning).
//
// The parallel loops (parallel/parallel_for.h) use only LptOrder: threads
// claim items online in that order, so an item that runs longer than its
// cost says delays only the thread running it. LptSchedule fixes the bins
// up front from the costs alone; it remains the offline model that
// ShardPool's width search, the lpt_imbalance probe and bench_ablation's
// LPT-vs-hash comparison read.
//
// Scheduling is deterministic: items are ordered by (cost desc, id asc)
// and load ties pick the smallest bin id, so a fixed cost vector always
// produces the same order and assignment.
#ifndef DPC_PARALLEL_LPT_SCHEDULER_H_
#define DPC_PARALLEL_LPT_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

namespace dpc {

/// An item -> bin assignment plus its load profile; bins[t] lists the
/// item indices bin t owns, in assignment order.
struct Schedule {
  std::vector<std::vector<int64_t>> bins;
  std::vector<double> load;    ///< total cost per bin
  double makespan = 0.0;       ///< max over load

  int num_bins() const { return static_cast<int>(bins.size()); }
  double TotalLoad() const {
    return std::accumulate(load.begin(), load.end(), 0.0);
  }
  double MeanLoad() const {
    return bins.empty() ? 0.0 : TotalLoad() / static_cast<double>(bins.size());
  }
  /// makespan / mean — 1.0 is perfect balance, bigger is worse.
  double Imbalance() const {
    const double mean = MeanLoad();
    return mean > 0.0 ? makespan / mean : 1.0;
  }
};

/// Item ids in LPT order: cost descending, id ascending among equal costs.
inline std::vector<int64_t> LptOrder(const std::vector<double>& costs) {
  std::vector<int64_t> order(costs.size());
  std::iota(order.begin(), order.end(), int64_t{0});
  std::sort(order.begin(), order.end(), [&costs](int64_t a, int64_t b) {
    const double ca = costs[static_cast<size_t>(a)];
    const double cb = costs[static_cast<size_t>(b)];
    return ca > cb || (ca == cb && a < b);
  });
  return order;
}

/// Longest-processing-time-first: items in LptOrder, each assigned to the
/// currently least-loaded bin.
inline Schedule LptSchedule(const std::vector<double>& costs, int num_bins) {
  Schedule s;
  const int bins = num_bins > 0 ? num_bins : 1;
  s.bins.resize(static_cast<size_t>(bins));
  s.load.assign(static_cast<size_t>(bins), 0.0);

  // Min-heap of (load, bin id); the pair order breaks load ties by bin id.
  using Slot = std::pair<double, int>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> heap;
  for (int t = 0; t < bins; ++t) heap.emplace(0.0, t);
  for (const int64_t item : LptOrder(costs)) {
    auto [load, t] = heap.top();
    heap.pop();
    s.bins[static_cast<size_t>(t)].push_back(item);
    load += costs[static_cast<size_t>(item)];
    s.load[static_cast<size_t>(t)] = load;
    heap.emplace(load, t);
  }
  s.makespan = *std::max_element(s.load.begin(), s.load.end());
  return s;
}

/// The hash-partition strawman: item i -> bin i % num_bins, cost-blind.
inline Schedule HashSchedule(const std::vector<double>& costs, int num_bins) {
  Schedule s;
  const int bins = num_bins > 0 ? num_bins : 1;
  s.bins.resize(static_cast<size_t>(bins));
  s.load.assign(static_cast<size_t>(bins), 0.0);
  for (int64_t item = 0; item < static_cast<int64_t>(costs.size()); ++item) {
    const size_t t = static_cast<size_t>(item % bins);
    s.bins[t].push_back(item);
    s.load[t] += costs[static_cast<size_t>(item)];
  }
  s.makespan = *std::max_element(s.load.begin(), s.load.end());
  return s;
}

}  // namespace dpc

#endif  // DPC_PARALLEL_LPT_SCHEDULER_H_
