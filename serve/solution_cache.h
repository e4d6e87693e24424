// Two-tier cache for the serving layer, built around the library's
// compute/threshold split:
//
//   solution tier — DpcSolutions keyed by everything the EXPENSIVE phase
//       depends on: dataset content fingerprint, algorithm name,
//       canonicalized per-algorithm options, and ComputeParams (d_cut,
//       epsilon). Threshold knobs are deliberately NOT in the key — one
//       cached solution answers every (rho_min, delta_min).
//   label tier — per-solution memo of finalized DpcResults keyed by
//       ThresholdSpec, so repeated thresholds alias one immutable result
//       and even a fresh threshold costs only an O(n) LabelSolution pass.
//
// This is what turns the decision-graph exploration workload (many
// thresholds against few compute configurations — the paper's Figure 1
// workflow) from N recomputes into one compute plus N O(n) finalizes.
//
// The memory tier is BYTE-budgeted: an entry is charged its exact
// serialized size (store/solution_format.h SerializedSolutionBytes) and
// bytes_in_use() never exceeds memory_budget_bytes. Eviction is
// GreedyDual-Size: each entry holds a credit of (global inflation L +
// compute cost / serialized bytes); hits refresh the credit; the victim
// is the minimum-credit entry and its credit becomes the new L. An
// expensive Ex-DPC solution therefore outlives many cheap approximate
// ones — per byte it occupies — yet ages out once enough cheaper traffic
// has passed, and the policy is deterministic for a fixed access
// sequence (ties break toward the least recently touched entry).
//
// With a store::SolutionStore attached the cache becomes the warm tier
// of a two-level hierarchy: Insert writes THROUGH to the store's log
// (durable before the entry is resident), eviction merely drops the
// memory copy (a demotion — the log still has it), and a memory miss
// tries the store before giving up (a WARM miss: the solution is
// promoted back and the caller finalizes it — never recomputes).
//
// Execution policy (the thread count) is excluded from keys on both
// tiers: the library-wide determinism contract (labels are
// bit-identical across thread counts, enforced by
// tests/determinism_test.cc) is what makes a cached artifact valid for
// every future execution of the same configuration. Thread-safe; the
// store is never called under the cache lock.
#ifndef DPC_SERVE_SOLUTION_CACHE_H_
#define DPC_SERVE_SOLUTION_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dpc.h"
#include "core/options.h"
#include "store/solution_format.h"
#include "store/solution_store.h"

namespace dpc::serve {

/// The solution-tier key. Numeric params render with %.17g (the same
/// normalization CanonicalOptionValue applies to option values), so any
/// two requests whose compute configurations are semantically identical —
/// however they were spelled — map to one key. rho_min and delta_min are
/// excluded (threshold-tier concerns).
inline std::string MakeSolutionKey(uint64_t dataset_fingerprint,
                                   const std::string& algorithm,
                                   const OptionsMap& options,
                                   const ComputeParams& compute) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%016llx|%.17g|%.17g|",
                static_cast<unsigned long long>(dataset_fingerprint),
                compute.d_cut, compute.epsilon);
  return buf + algorithm + '|' + CanonicalOptionsString(options);
}

/// The label-tier key within one solution entry. The halo flag is not
/// part of it: halo derivation happens downstream of labels and never
/// changes them.
inline std::string MakeThresholdKey(const ThresholdSpec& spec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g|%.17g", spec.rho_min, spec.delta_min);
  return buf;
}

class SolutionCache {
 public:
  /// One COHERENT snapshot: stats() copies every field (occupancy
  /// included) under a single mu_ acquisition, and each lookup's
  /// classification increments `lookups` in the same critical section as
  /// its hit/warm/miss counter — so the cross-field invariant
  ///   lookups == solution_hits + warm_misses + solution_misses
  /// holds in EVERY snapshot, not just quiescent ones
  /// (tests/serve_test.cc hammers this concurrently). The pre-PR-9 shape
  /// — stats(), size(), and bytes_in_use() each taking the lock at a
  /// different time — let scrapes observe torn invariants.
  struct Stats {
    uint64_t lookups = 0;          ///< classified reads (hit + warm + miss)
    uint64_t solution_hits = 0;    ///< memory-tier hits (Lookup/Finalize)
    uint64_t solution_misses = 0;  ///< missed memory AND the store
    uint64_t warm_misses = 0;  ///< missed memory, served from the store
    uint64_t promotions = 0;   ///< store solutions re-admitted to memory
    uint64_t demotions = 0;    ///< evictions whose entry lives on on disk
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t label_hits = 0;     ///< Finalize served an existing labeling
    uint64_t finalizations = 0;  ///< Finalize ran LabelSolution (O(n))
    // Occupancy, filled by stats() from the same critical section.
    uint64_t entries = 0;
    uint64_t bytes_in_use = 0;
    uint64_t budget_bytes = 0;
  };

  /// memory_budget_bytes bounds the sum of resident entries' serialized
  /// sizes; 0 disables the memory tier (every Lookup misses, Insert only
  /// writes through to the store, if any). labelings_per_solution bounds
  /// each entry's label memo (LRU within the entry) — each memoized
  /// DpcResult carries its own copies of rho/delta/dependency (the
  /// response contract), so this bound is the per-solution memory
  /// multiplier on top of the byte budget. `store` (optional, unowned)
  /// is the durable tier behind this one.
  explicit SolutionCache(size_t memory_budget_bytes,
                         size_t labelings_per_solution = 16,
                         store::SolutionStore* store = nullptr)
      : memory_budget_bytes_(memory_budget_bytes),
        labelings_per_solution_(labelings_per_solution > 0
                                    ? labelings_per_solution
                                    : 1),
        store_(store) {}

  size_t memory_budget_bytes() const { return memory_budget_bytes_; }
  bool enabled() const { return memory_budget_bytes_ > 0; }
  const store::SolutionStore* store() const { return store_; }

  /// The cached solution for key, refreshing its eviction credit — or,
  /// on a memory miss with a store attached, the promoted store copy;
  /// null when both tiers miss. For label-bearing reads prefer Finalize
  /// (one lock, memoized).
  std::shared_ptr<const DpcSolution> Lookup(const std::string& key) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      Entry* entry = Touch(key);
      if (entry != nullptr) {
        ++stats_.lookups;
        ++stats_.solution_hits;
        return entry->solution;
      }
    }
    return Promote(key);
  }

  /// Two-tier read: the finalized result for (key, spec), or null when
  /// both the memory tier and the store miss. A solution hit with a
  /// label-tier miss runs the O(n) finalize — never the algorithm —
  /// OUTSIDE the cache lock (a large-solution labeling must not convoy
  /// every other client on mu_), then memoizes under a double-checked
  /// re-lock so identical thresholds alias one immutable DpcResult.
  std::shared_ptr<const DpcResult> Finalize(const std::string& key,
                                            const ThresholdSpec& spec) {
    const std::string threshold_key = MakeThresholdKey(spec);
    std::shared_ptr<const DpcSolution> solution;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Entry* entry = Touch(key);
      if (entry != nullptr) {
        ++stats_.lookups;
        ++stats_.solution_hits;
        if (auto memo = FindLabeling(entry, threshold_key)) {
          ++stats_.label_hits;
          return memo;
        }
        solution = entry->solution;  // keeps the artifact alive unlocked
      }
    }
    if (solution == nullptr) {
      solution = Promote(key);  // the warm-miss path: store, not recompute
      if (solution == nullptr) return nullptr;
    }
    auto result =
        std::make_shared<const DpcResult>(FinalizeSolution(*solution, spec));
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.finalizations;
    const auto it = index_.find(key);
    if (it == index_.end() || it->second.solution != solution) {
      // Evicted or replaced while labeling (or the promotion didn't fit):
      // the result is still correct for the solution we read, just not
      // memoizable against the key.
      return result;
    }
    if (auto memo = FindLabeling(&it->second, threshold_key)) {
      // Raced with another finalizer: alias the first-memoized result so
      // repeated thresholds stay pointer-identical.
      return memo;
    }
    it->second.labelings.emplace_front(threshold_key, result);
    if (it->second.labelings.size() > labelings_per_solution_) {
      it->second.labelings.pop_back();
    }
    return result;
  }

  /// Caches the solution under key with the given eviction cost
  /// (typically DpcSolution::compute_cost_seconds). Writes through to
  /// the store first (durability does not depend on residency), then
  /// admits the entry to memory, evicting minimum-credit entries until
  /// its serialized size fits the byte budget. Re-inserting an existing
  /// key refreshes its value, cost, and credit, and drops its stale
  /// label memo.
  void Insert(const std::string& key,
              std::shared_ptr<const DpcSolution> solution, double cost) {
    if (cost < 0.0) cost = 0.0;
    if (store_ != nullptr && !solution->interrupted()) {
      // Write-through; a store I/O failure degrades durability, never
      // serving (the memory tier still admits the entry below).
      (void)store_->Put(key, *solution);
    }
    if (!enabled()) return;
    const size_t bytes = store::SerializedSolutionBytes(*solution);
    std::lock_guard<std::mutex> lock(mu_);
    InsertLocked(key, std::move(solution), cost, bytes);
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    bytes_in_use_ = 0;
    inflation_ = 0.0;
    seq_ = 0;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
  }

  /// Sum of resident entries' serialized sizes; <= memory_budget_bytes()
  /// at all times (the acceptance invariant serve_test asserts).
  size_t bytes_in_use() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_in_use_;
  }

  /// Every counter AND the occupancy fields, copied under one lock — the
  /// coherent snapshot path (see Stats).
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.entries = static_cast<uint64_t>(index_.size());
    s.bytes_in_use = static_cast<uint64_t>(bytes_in_use_);
    s.budget_bytes = static_cast<uint64_t>(memory_budget_bytes_);
    return s;
  }

  /// Keys in eviction order — the next victim first (ascending credit,
  /// ties oldest-touch first). Tests assert eviction determinism against
  /// this order.
  std::vector<std::string> KeysByEvictionOrder() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<const std::string*, const Entry*>> entries;
    entries.reserve(index_.size());
    for (const auto& [key, entry] : index_) entries.push_back({&key, &entry});
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                if (a.second->credit != b.second->credit) {
                  return a.second->credit < b.second->credit;
                }
                return a.second->touch_seq < b.second->touch_seq;
              });
    std::vector<std::string> keys;
    keys.reserve(entries.size());
    for (const auto& [key, entry] : entries) keys.push_back(*key);
    return keys;
  }

 private:
  struct Entry {
    std::shared_ptr<const DpcSolution> solution;
    double cost = 0.0;     ///< compute cost backing the credit refreshes
    size_t bytes = 0;      ///< serialized size — the budget charge
    double credit = 0.0;   ///< GreedyDual-Size: inflation + cost / bytes
    uint64_t touch_seq = 0;  ///< recency, the deterministic tie-break
    /// Label memo, most recently used first, bounded by
    /// labelings_per_solution_.
    std::list<std::pair<std::string, std::shared_ptr<const DpcResult>>>
        labelings;
  };

  static double CreditFor(double inflation, double cost, size_t bytes) {
    return inflation + cost / static_cast<double>(bytes > 0 ? bytes : 1);
  }

  /// The warm-miss path: fetch from the store (outside mu_ — promotion
  /// I/O must not convoy the memory tier) and re-admit. Counts the miss
  /// taxonomy: solution_misses only when BOTH tiers miss.
  std::shared_ptr<const DpcSolution> Promote(const std::string& key) {
    if (!enabled()) return nullptr;
    std::shared_ptr<const DpcSolution> fetched =
        store_ != nullptr ? store_->Fetch(key) : nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    if (fetched == nullptr) {
      ++stats_.lookups;
      ++stats_.solution_misses;
      return nullptr;
    }
    ++stats_.lookups;
    ++stats_.warm_misses;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // A racing promoter or inserter beat us; alias the resident copy.
      it->second.credit = CreditFor(inflation_, it->second.cost,
                                    it->second.bytes);
      it->second.touch_seq = ++seq_;
      return it->second.solution;
    }
    const size_t bytes = store::SerializedSolutionBytes(*fetched);
    if (InsertLocked(key, fetched, fetched->compute_cost_seconds, bytes)) {
      ++stats_.promotions;
    }
    return fetched;
  }

  /// Admits (key, solution) charged `bytes` against the budget, evicting
  /// until it fits; an entry larger than the whole budget is not
  /// admitted. Returns whether the entry is resident. Caller holds mu_.
  bool InsertLocked(const std::string& key,
                    std::shared_ptr<const DpcSolution> solution, double cost,
                    size_t bytes) {
    bool existed = false;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // Re-insert: drop the old incarnation (stale labelings included)
      // and admit the new one through the same budget gate.
      existed = true;
      bytes_in_use_ -= it->second.bytes;
      index_.erase(it);
    }
    if (bytes > memory_budget_bytes_) return false;
    while (bytes_in_use_ + bytes > memory_budget_bytes_ && !index_.empty()) {
      EvictOne();
    }
    Entry entry;
    entry.solution = std::move(solution);
    entry.cost = cost;
    entry.bytes = bytes;
    entry.credit = CreditFor(inflation_, cost, bytes);
    entry.touch_seq = ++seq_;
    bytes_in_use_ += bytes;
    index_.emplace(key, std::move(entry));
    if (!existed) ++stats_.insertions;
    return true;
  }

  /// The memoized labeling for threshold_key (refreshed to most recent),
  /// or null. Caller holds mu_.
  std::shared_ptr<const DpcResult> FindLabeling(
      Entry* entry, const std::string& threshold_key) {
    for (auto it = entry->labelings.begin(); it != entry->labelings.end();
         ++it) {
      if (it->first == threshold_key) {
        entry->labelings.splice(entry->labelings.begin(), entry->labelings,
                                it);  // most recent first
        return entry->labelings.front().second;
      }
    }
    return nullptr;
  }

  /// Looks up and, on a hit, refreshes credit/recency. Stats are the
  /// caller's job (a memory miss may still be a warm one). Caller holds
  /// mu_.
  Entry* Touch(const std::string& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    it->second.credit = CreditFor(inflation_, it->second.cost,
                                  it->second.bytes);
    it->second.touch_seq = ++seq_;
    return &it->second;
  }

  /// Removes the minimum-credit entry (oldest touch on ties) and raises
  /// the inflation level to its credit — the GreedyDual aging step that
  /// lets cheap-but-hot traffic eventually displace an expensive cold
  /// entry. With a store attached this is a DEMOTION: the write-through
  /// copy in the log survives, only the memory copy goes. Caller holds
  /// mu_.
  void EvictOne() {
    auto victim = index_.begin();
    for (auto it = std::next(index_.begin()); it != index_.end(); ++it) {
      const Entry& a = it->second;
      const Entry& b = victim->second;
      if (a.credit < b.credit ||
          (a.credit == b.credit && a.touch_seq < b.touch_seq)) {
        victim = it;
      }
    }
    inflation_ = victim->second.credit;
    bytes_in_use_ -= victim->second.bytes;
    index_.erase(victim);
    ++stats_.evictions;
    if (store_ != nullptr) ++stats_.demotions;
  }

  const size_t memory_budget_bytes_;
  const size_t labelings_per_solution_;
  store::SolutionStore* const store_;  ///< durable tier; unowned, may be null
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> index_;
  size_t bytes_in_use_ = 0;
  double inflation_ = 0.0;  ///< GreedyDual "L": credit of the last victim
  uint64_t seq_ = 0;
  Stats stats_;
};

}  // namespace dpc::serve

#endif  // DPC_SERVE_SOLUTION_CACHE_H_
